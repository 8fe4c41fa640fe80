(** A small pool of worker domains driven by a single coordinator.

    Every parallel step of the storage stack — chunked run sealing in
    {!Storage} and per-shard transfers in {!Backend.sharded} — is the
    same shape: a handful of independent jobs, all of which must finish
    before the coordinator continues. A store owns one pool and lends it
    to both, so a store never runs more than [size + 1] domains however
    its sealing and striping are configured.

    Which domain runs a job is physical only: jobs must touch disjoint
    state, and the caller decides the partition, so the result of a run
    is the same whether it ran on one domain or many. *)

type t

val create : int -> t
(** [create n] is a pool of [n] worker domains (raises
    [Invalid_argument] when [n < 0]). Domains are spawned lazily, each
    the first time a {!run} needs it, so a pool that never fans out
    costs nothing. *)

val size : t -> int
(** The number of worker domains ([n] of {!create}). *)

val run : t -> (unit -> unit) array -> exn option array
(** [run t jobs] runs job [0] on the calling domain and job [i] on
    worker [i - 1], and returns once every job has finished: outcome
    [i] is [None] when job [i] returned and [Some e] when it raised [e].
    Every job runs to completion even when another raises. Raises
    [Invalid_argument] without running anything when there are more
    than [size t + 1] jobs, or when a closed pool would need a worker.
    Not reentrant: a job must not call [run] on the same pool. *)

val close : t -> unit
(** Stop and join every spawned worker. Idempotent. *)
