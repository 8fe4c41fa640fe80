(** A tournament (loser) tree over [k] sources, the selection structure
    of a k-way merge: after each {!replay} the source with the least
    head is found in ⌈log₂ k⌉ matches instead of a scan over all [k].

    The tree holds only source indices; the caller owns the heads and
    describes them through two callbacks, read afresh at every match. *)

type t

val create : int -> live:(int -> bool) -> cmp:(int -> int -> int) -> t
(** [create k ~live ~cmp] plays the first tournament over sources
    [0 .. k-1] ([k >= 1]). [live r] tells whether source [r] still has
    a head; [cmp r s] compares the heads of two live sources and must
    be a total preorder. A live source beats an exhausted one, and of
    two sources whose heads tie the lower index wins, so {!winner} is
    exactly the source a left-to-right scan for the strict minimum
    would pick.
    @raise Invalid_argument if [k < 1]. *)

val winner : t -> int
(** The source with the least head; an exhausted source only when every
    source is exhausted. *)

val replay : t -> unit
(** Re-play the winner's matches up to the root after its head changed
    (advanced or ran out). No other source's head may have changed
    since the last {!create} or {!replay}. *)
