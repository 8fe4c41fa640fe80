(* Heap layout: internal node n in [1, k) has children 2n and 2n+1, and
   node k+r is source r's leaf. [loser.(n)] is the source that lost the
   match at node n; the overall winner is kept apart. Any k works: the
   leaves simply sit at two depths when k is not a power of two. *)
type t = {
  k : int;
  loser : int array;
  mutable win : int;
  live : int -> bool;
  cmp : int -> int -> int;
}

(* Does source r beat source s? A strict total order over sources. *)
let beats t r s =
  if t.live r then
    (not (t.live s))
    ||
    let c = t.cmp r s in
    c < 0 || (c = 0 && r < s)
  else (not (t.live s)) && r < s

let create k ~live ~cmp =
  if k < 1 then invalid_arg "Loser_tree.create";
  let t = { k; loser = Array.make k 0; win = 0; live; cmp } in
  let winners = Array.make (2 * k) 0 in
  for r = 0 to k - 1 do
    winners.(k + r) <- r
  done;
  for n = k - 1 downto 1 do
    let a = winners.(2 * n) and b = winners.((2 * n) + 1) in
    let w, l = if beats t a b then (a, b) else (b, a) in
    winners.(n) <- w;
    t.loser.(n) <- l
  done;
  (* Node 1 is the root, or source 0's leaf when k = 1. *)
  t.win <- winners.(1);
  t

let winner t = t.win

let replay t =
  let cur = ref t.win in
  let n = ref ((t.k + t.win) / 2) in
  while !n >= 1 do
    let l = t.loser.(!n) in
    if beats t l !cur then begin
      t.loser.(!n) <- !cur;
      cur := l
    end;
    n := !n / 2
  done;
  t.win <- !cur
