(** Latency telemetry for the storage stack: who spent the wall-clock.

    The I/O model counts block transfers; this module measures what each
    one {e costs} on the machine, so "fast as the hardware allows" is a
    number instead of a feeling. A [Telemetry.t] is an event sink wired
    through {!Odex_extmem.Storage} (and from there into every backend
    call, trace span and cache probe). It collects

    - a log₂-bucketed latency histogram per (operation kind × backend
      kind) — every backend [read]/[write]/[read_run]/[write_run]/[sync]
      is timed with the monotonic clock;
    - one timed record per completed {!Odex_extmem.Trace.with_span}
      phase, with the counted I/Os, retries, faults and payload bytes
      that occurred while the phase was innermost; and
    - free-form named counters (cache hits/misses/flushes, …).

    Two export views: {!pp_summary} prints a human-readable profile
    (per-op percentiles, per-phase totals, counters) and {!chrome_json}
    emits Chrome trace-event JSON loadable in [chrome://tracing] or
    Perfetto.

    {b Obliviousness.} Telemetry observes only what Bob already sees —
    operation kinds, block counts, sealed-payload sizes, wall-clock —
    never plaintext, keys or nonces. Enabling it must not change a
    single trace op (the pair-tester asserts telemetry-on vs -off traces
    are bit-identical), because it sits strictly {e around} the I/O
    path, not in it.

    {b Zero cost when disabled.} {!disabled} is a no-op sink: every
    record entry point returns after one flag test, no clock is read,
    and {!Odex_extmem.Storage} does not even wrap its backend with the
    timing decorator. *)

type t

val disabled : t
(** The shared no-op sink. [enabled disabled = false]; all recording
    functions return immediately and all exports are empty. *)

val create : unit -> t
(** A fresh collecting sink. *)

val enabled : t -> bool

val now_ns : unit -> int64
(** Monotonic clock, nanoseconds (arbitrary epoch). *)

(** Backend operation kinds, as timed by the instrumented backend (a
    single block travels as a run of one), plus the cipher ops ([Seal]/[Unseal]) Storage reports under the pseudo
    backend "cipher" so profiles attribute keystream time separately
    from device time. *)
type op_kind = Read_run | Write_run | Sync | Seal | Unseal

val op_kind_name : op_kind -> string

val record_op :
  t -> backend:string -> op:op_kind -> blocks:int -> bytes:int -> ns:int64 -> unit
(** One timed backend operation: [blocks] block payloads ([bytes] bytes
    total) moved in [ns] nanoseconds. No-op on a disabled sink. *)

val with_phase : t -> string -> (unit -> 'a) -> 'a
(** Time a labelled phase. Phases nest; counter attribution
    ({!add_ios} …) goes to the innermost open phase. Exception-safe: the
    phase record is emitted even if the thunk raises. On a disabled sink
    this is exactly [f ()]. *)

val add_ios : t -> int -> unit
(** Counted logical I/Os, attributed to the innermost open phase. *)

val add_retries : t -> int -> unit
val add_faults : t -> int -> unit
val add_bytes : t -> int -> unit

val add_counter : t -> string -> int -> unit
(** Bump a free-form named counter (e.g. ["cache.hit"]). *)

(** {1 Collected data} *)

type phase = {
  label : string;
  depth : int;
  start_ns : int64;  (** {!now_ns} timestamp at entry. *)
  dur_ns : int64;
  ios : int;  (** Counted I/Os while this phase was innermost. *)
  retries : int;
  faults : int;
  bytes : int;
}

val phases : t -> phase list
(** Completed phases in completion order. *)

type hist
(** A log₂-bucketed latency histogram. *)

val hist_count : hist -> int
val hist_total_ns : hist -> int64

val hist_percentile : hist -> float -> float
(** [hist_percentile h p] estimates the [p]-th percentile latency in
    nanoseconds ([0. <= p <= 100.]), as the geometric midpoint of the
    bucket holding that rank, clamped to the smallest and largest
    sample recorded — so every percentile lies inside the observed
    range, and a single-sample histogram reports that sample. [0.] on
    an empty histogram. *)

type op_stat = {
  op : op_kind;
  op_backend : string;
  count : int;
  op_blocks : int;
  op_bytes : int;
  latency : hist;
}

val op_stats : t -> op_stat list
(** One entry per (op kind × backend kind) seen, sorted by kind. *)

type phase_stat = { phase_label : string; phase_count : int; phase_latency : hist }

val phase_stats : t -> phase_stat list
(** Phase durations aggregated by label, sorted by label. *)

val counters : t -> (string * int) list
(** Named counters, sorted by name. *)

(** {1 Export} *)

val pp_summary : Format.formatter -> t -> unit
(** Human-readable profile: op latency percentiles, phase totals,
    counters. Prints a one-line note on a disabled or empty sink. *)

val chrome_json : (string * t) list -> string
(** Chrome trace-event (catapult) JSON for a set of named sinks: one
    thread per sink (named by its label), one complete ("ph":"X") event
    per phase with its counters as [args], plus per-thread instant
    events summarizing op latencies. Load the result in
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}.
    Timestamps are rebased so the earliest phase starts at 0. *)

val write_chrome : path:string -> (string * t) list -> unit
(** {!chrome_json} straight to a file. *)
