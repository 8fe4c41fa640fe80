(** I/O accounting for the external-memory model.

    Every theorem in the paper is an I/O bound, so the simulator counts
    block reads and writes exactly. [span] lets the experiment harness
    attribute I/Os to algorithm phases. *)

type t

val create : unit -> t

val record_read : t -> unit
val record_write : t -> unit
val record_retry : t -> unit

val record_moved : t -> int -> unit
(** Add [n] payload bytes to the transfer tally. *)

val record_batched : t -> int -> unit
(** Add [n] logical I/Os that were served through a multi-block backend
    run. *)

val reads : t -> int
val writes : t -> int
val total : t -> int

val retries : t -> int
(** Failed-and-repeated attempts on counted I/Os (see
    {!Storage.create}'s retry handling). Deliberately excluded from
    {!total}: a retry is a repeat of the same logical I/O, so the
    paper's I/O bounds are asserted against [total] on every backend,
    while the retries remain visible to the adversary in the trace. *)

val bytes_moved : t -> int
(** Sealed-payload bytes transferred by successful counted I/Os —
    [payload_size * total] by construction (failed attempts excluded,
    like {!retries}). The numerator of the bench's [mb_per_s]. *)

val batched_ios : t -> int
(** Counted I/Os that travelled through a multi-block
    {!Storage.read_many}/{!Storage.write_many} backend run rather than a
    run of one. Always [<= total]; the share of multi-block runs is
    visible as this ratio approaching 1 on scan-heavy algorithms. *)

val reset : t -> unit

type snapshot = {
  reads : int;
  writes : int;
  retries : int;
  bytes_moved : int;
  batched_ios : int;
}
(** A full counter capture — not just reads/writes. Span deltas would
    otherwise silently drop retries, bytes and batched I/Os, which is
    exactly what a profiler needs per phase. *)

val snapshot : t -> snapshot

val span : t -> (unit -> 'a) -> 'a * snapshot
(** [span t f] runs [f] and returns its result together with the delta
    of {e every} counter over [f] — I/Os, retries, bytes moved, batched
    share. Exception-safe: if [f] raises (e.g. {!Cache.Overflow}
    mid-span), the measured delta is still recorded and retrievable via
    {!last_span} before the exception propagates. *)

val last_span : t -> snapshot option
(** The I/O delta of the most recently completed (or aborted) [span]. *)

val pp : Format.formatter -> t -> unit
