(** Physical block stores underneath {!Storage}.

    {!Storage} is the paper-facing layer: it owns the I/O accounting,
    the adversary trace, encryption and the bump allocator. A backend is
    only the dumb device those sealed payloads land on — a fixed-size
    byte region per block address. Three implementations ship:

    - {!mem}: a growable in-process off-heap arena (one flat
      {!Odex_crypto.Bigbuf}, blocks served by blit — no per-block
      allocation in either direction);
    - {!file}: a plain file addressed at [addr * payload_size], so
      datasets can exceed RAM and the block image persists across runs;
      block payloads move positionally ({!Bigio}) straight between the
      file and the caller's buffer;
    - {!faulty}: a decorator injecting deterministic transient failures,
      for exercising the retry path of {!Storage} under the
      obliviousness harness.

    A block moves only as part of a run: {!S.read_run}/{!S.write_run}
    are a backend's one read and one write entry point, and a single
    block is a run of one. The paper's cost model counts one I/O per
    block however the bytes travel, so {!Storage} counts blocks and the
    backend only decides how a contiguous run reaches the device.

    All block transfers go through caller-owned {!Odex_crypto.Bigbuf}
    regions — the same off-heap buffers the cipher engines XOR in place
    — so a sealed payload travels device <-> cipher <-> codec without a
    staging copy. Backends never see plaintext (when a cipher key is set
    the payload is ciphertext), never count I/Os and never touch the
    trace — that is Storage's job, which is what keeps the accounting
    identical across backends. {!Storage} also composes the stack and
    keeps the counters {!faulty} and {!sharded} hand back, so a backend
    answers only block, metadata and lifecycle calls. *)

exception Transient of { addr : int; access : int }
(** A retryable fault: access [access] (the backend's global access
    counter) to block [addr] failed. Raised only by the faulty
    decorator; {!Storage} retries at once, up to a fixed budget. *)

exception Crashed
(** The simulated process death of the {!crash_after} decorator. Never
    retried — it unwinds through {!Storage} to the crash-sweep harness. *)

val retry_eintr : (unit -> 'a) -> 'a
(** Run a raw Unix call, restarting it as long as it raises
    [Unix_error (EINTR, _, _)]. Every [read]/[write]/[fsync]/[ftruncate]
    on the file-backend I/O path (and the journal's) goes through this:
    a handled signal — a profiler timer, a test harness's SIGALRM — must
    never abort a counted transfer half-written. *)

module type S = sig
  type t

  val kind : string
  (** Short name ("mem", "file", "faulty"), for reports. *)

  val payload_bytes : t -> int
  (** The fixed byte size of every block payload this store holds, set
      at construction. Decorators forward to their inner store. *)

  val ensure : t -> int -> unit
  (** [ensure t n] guarantees addresses [0 .. n-1] are backed. *)

  val size : t -> int
  (** Number of backed addresses (the [ensure] high-water mark). *)

  val read_run :
    t -> addr:int -> count:int -> payload:int -> buf:Odex_crypto.Bigbuf.t -> off:int -> unit
  (** [read_run t ~addr ~count ~payload ~buf ~off] fills
      [buf[off .. off + count*payload)] with the payloads of the
      contiguous block run [addr, addr + count) — a single positioned
      transfer on {!file}, one blit on {!mem}, and a per-block
      fault-gated iteration on {!faulty}. A never-written address reads
      as zeros. [payload] must equal [payload_bytes]. The whole window
      (addresses, payload size and buffer region) is validated by
      {!check_run} before any byte moves, so a bad run raises
      without a partial transfer. On [Transient { addr = a }], blocks
      before [a] have been transferred and blocks from [a] on have not —
      the caller may resume the run at [a]. [count = 0] is a validated
      no-op. *)

  val write_run :
    t -> addr:int -> count:int -> payload:int -> buf:Odex_crypto.Bigbuf.t -> off:int -> unit
  (** Mirror image of [read_run]: stores [count] payloads read from
      [buf[off ..]] at [addr, addr + count), with the same validation,
      fault and resume semantics. *)

  val read_meta : t -> bytes option
  (** The metadata blob last stored with {!write_meta} ([None] on a
      fresh store). Out-of-band server state: not an I/O of the model,
      never traced, never fault-gated. *)

  val write_meta : t -> bytes -> unit
  (** Durably associate a metadata blob (at most {!meta_capacity} bytes)
      with the store; {!Storage} keeps its sealing header — notably the
      cipher-nonce high-water mark and the cipher engine id — there, so
      a reopened file store can resume without ever reusing a
      (key, nonce) pair or misinterpreting ciphertext under the wrong
      engine. *)

  val sync : t -> unit
  (** Flush to durable media where that means something (file). *)

  val close : t -> unit
end

val check_run :
  who:string -> blocks:int -> payload_bytes:int -> addr:int -> count:int -> payload:int ->
  buf:Odex_crypto.Bigbuf.t -> off:int -> unit
(** The run validation every {!S} implementation applies before it moves
    a byte: raises [Invalid_argument] (prefixed with [who]) unless
    [count >= 0], [payload = payload_bytes], the run [addr, addr + count)
    lies within [0, blocks), and [buf[off .. off + count*payload)] lies
    within [buf]. *)

type t = Packed : (module S with type t = 'a) * 'a -> t
(** An instantiated backend. *)

val kind : t -> string
val payload_bytes : t -> int
val ensure : t -> int -> unit
val size : t -> int

val read : t -> int -> bytes
(** Convenience for cold paths and tests: a one-block {!read_run} into a
    fresh staging buffer, copied out. The sealing path never calls this. *)

val write : t -> int -> bytes -> unit
(** Convenience mirror of {!read}: the payload must be exactly
    [payload_bytes] long. *)

val read_run :
  t -> addr:int -> count:int -> payload:int -> buf:Odex_crypto.Bigbuf.t -> off:int -> unit

val write_run :
  t -> addr:int -> count:int -> payload:int -> buf:Odex_crypto.Bigbuf.t -> off:int -> unit

val read_meta : t -> bytes option
val write_meta : t -> bytes -> unit
val sync : t -> unit
val close : t -> unit

val meta_capacity : int
(** Maximum {!write_meta} blob size (bytes) every backend supports. *)

val mem : payload_size:int -> unit -> t
(** In-process store: one flat off-heap arena, block [addr] at byte
    offset [addr * payload_size]. Reads and writes are single blits
    between the arena and the caller's buffer; fresh arena space is
    zero-filled, so a never-written slot reads as a zero payload. *)

val file : path:string -> payload_size:int -> t
(** File-backed store: a fixed {!file_header_bytes}-byte header (magic,
    payload size, metadata blob), then block [addr] at byte offset
    [file_header_bytes + addr * payload_size]. The file is created if
    missing and {e not} truncated, so a previous run's block image — and
    its metadata — is readable by a new backend on the same path.
    Opening a non-empty file without the header magic, with a different
    payload size, or whose data region is not a whole number of blocks
    (a write torn by a crash) raises [Invalid_argument] rather than
    misreading blocks at shifted offsets or exposing the torn block;
    recover a torn store by reopening through its {!Journal}.

    Block payloads transfer positionally (pread/pwrite via {!Bigio})
    directly against the caller's off-heap buffer; only the header path
    uses the shared file offset.

    Every operation on a closed store — including [read_meta] and
    [write_meta], so a nonce high-water checkpoint can never be silently
    dropped — raises [Invalid_argument]. *)

val file_header_bytes : int
(** Size of the file backend's on-disk header (64 bytes). *)

type fault_plan = {
  seed : int;  (** Fixes the whole fault schedule. *)
  failure_rate : float;  (** Probability a fresh access starts a fault burst. *)
  max_burst : int;  (** Maximum consecutive failing accesses per burst (>= 1). *)
}
(** A deterministic fault schedule. Whether access number [i] fails is a
    pure function of [(seed, i)] — never of the address and never of the
    data — so two runs that make the same number of accesses in the same
    order see byte-identical fault/retry sequences. That is what lets the
    pair-testing harness demand identical traces even with failures
    enabled: retries are part of Bob's view, but a value-independent
    part.

    Bursts end with a guaranteed recovery: the access immediately after
    a burst's last failure always succeeds, so a logical I/O retried in
    place needs at most [max_burst] retries. Keep [max_burst] below
    {!Storage.max_retries} and the retry budget can never be exhausted;
    a longer burst exercises the permanent-failure path. *)

val faulty : fault_plan -> t -> t * (unit -> int)
(** [faulty plan inner] fails accesses according to [plan] (raising
    {!Transient}) and forwards the rest to [inner]. The second component
    reads how many {!Transient}s this layer has raised so far. *)

val shard_perm : shards:int -> seed:int -> int array * int array
(** The keyed lane permutation behind {!Stripe}: [(perm, perm_inv)]
    with [perm] mapping lane to shard and [perm_inv] its inverse.
    Raises [Invalid_argument] when [shards < 1]. *)

(** The striping map of {!sharded}, precomputed once per stripe: the
    stripe backend routes its runs through it and {!Storage} records
    its per-server traces through the same value, so the arithmetic
    exists in one place. {!shard}, {!inner} and {!logical} allocate
    nothing: they run on every counted op of a striped store. *)
module Stripe : sig
  type t

  val create : shards:int -> seed:int -> t
  (** The map of a [shards]-way stripe keyed by [seed] (the PRP of
      {!shard_perm}, derived once). Raises [Invalid_argument] when
      [shards < 1]. *)

  val shards : t -> int

  val shard : t -> int -> int
  (** [shard t a] is the shard serving logical block [a >= 0]:
      [perm.((a mod K + a / K) mod K)]. *)

  val inner : t -> int -> int
  (** [inner t a] is block [a]'s address on its shard, [a / K]. *)

  val route : t -> int -> int * int
  (** [(shard t a, inner t a)]. *)

  val logical : t -> shard:int -> inner:int -> int
  (** The inverse of {!route}: the logical block that [shard] holds at
      inner address [inner] ([0 <= shard < K], [inner >= 0]), so
      [logical t ~shard:(shard t a) ~inner:(inner t a) = a]. Strictly
      increasing in [inner] for a fixed shard. *)
end

val sharded : stripe:Stripe.t -> pool:Workers.t -> t array -> t * (unit -> int array)
(** [sharded ~stripe ~pool inners] stripes one logical address space
    across the [K = Stripe.shards stripe] inner stores (one per shard,
    all with the same payload size). Logical block [a] belongs to group
    [g = a / K] and lives on shard [perm((a mod K + g) mod K)] at inner
    address [g], where [perm] is the keyed PRP of the lanes behind
    [stripe] — a bijection, so every group of [K] consecutive logical
    blocks touches all [K] devices, and a pure function of the block
    index, so the fan-out is as data-independent as the flat address
    sequence it refines. The second component reads the per-shard
    counts of block ops served so far (every attempt, counted or not):
    the obliviousness harness compares them across a pair run, since
    the fan-out must be a function of the logical trace alone.

    A contiguous logical run decomposes into exactly one contiguous
    inner run per shard (the logical addresses a shard serves are
    strictly increasing in its inner address); runs of at least [2K]
    blocks run one job per shard on [pool] (which needs at least
    [K - 1] workers, else [Invalid_argument]), while smaller runs
    execute inline through the same decomposition, so execution mode
    never shows in the logical trace. The pool is
    borrowed: {!close} closes the inner stores, not the pool.

    On a mid-run {!Transient} the smallest faulted {e logical} address
    is re-raised after every shard has run to completion or its own
    fault: all blocks below it have been transferred (blocks at or above
    it may have been too — resuming re-transfers them, which is
    idempotent). Any other exception from a shard wins over every
    {!Transient}.

    [ensure n] grows every inner store to [ceil(n / K)] blocks; the
    exact logical length is persisted as an 8-byte prefix of the
    metadata blob on shard 0 (so client metadata is limited to
    [meta_capacity - 8] bytes) and recovered on reopen. *)

val crash_after : ops:int -> t -> t
(** [crash_after ~ops inner] lets the first [ops] block operations (and
    syncs) through, then raises {!Crashed} on every further one — a
    deterministic kill switch for crash-recovery sweeps. [ensure],
    metadata and [close] are never gated: the sweep interrupts at block
    ops, and the harness must still release descriptors after the
    "crash". Sweeping [ops] over [0 .. total] simulates dying after
    every backend op of a run. *)

val instrument : Odex_telemetry.Telemetry.t -> t -> t
(** [instrument sink inner] times every [read_run]/[write_run]/[sync]
    with the monotonic clock and reports each to [sink] (as {!Odex_telemetry.Telemetry.record_op}) under [inner]'s
    kind, forwarding everything else untouched. The shim observes only
    operation kinds, block/byte counts and durations — never payload
    contents — and {!Storage} installs it only when the sink is enabled,
    so a disabled sink leaves the I/O path byte-for-byte as before. *)
