(* The harness configuration and the one factory every workload store
   comes from, plus the input generators shared by the experiments. *)

open Odex_extmem
module Cipher = Odex_crypto.Cipher
module Telemetry = Odex_telemetry.Telemetry

(* Parsed once from the command line; the same in both output modes. *)
type config = {
  backend : string;  (* a Registry backend name: mem | file | faulty *)
  shards : int;  (* stripe width of every workload store (1 = unstriped) *)
  servers : int;  (* stripe width of E18's multi-server leg (>= 2) *)
  journal : bool;  (* run each experiment twice: journal off, then on *)
  cipher : Cipher.engine option;  (* None = plaintext stores *)
  seal_domains : int;
  sorter : string option;  (* narrows E15's engine sweep *)
  profile : string option;  (* Chrome trace path; Some = live telemetry *)
}

let default =
  {
    backend = "mem";
    shards = 1;
    servers = 2;
    journal = false;
    cipher = None;
    seal_domains = 1;
    sorter = None;
    profile = None;
  }

(* A fixed benchmark key: sealing overhead is what is measured, not key
   management. *)
let key cfg = Option.map (fun _ -> Cipher.key_of_int 0x0dec) cfg.cipher

(* One live sink per store when profiling, else the shared no-op sink
   (no instrumentation on the timed path at all). *)
let telemetry cfg = if cfg.profile = None then Telemetry.disabled else Telemetry.create ()

(* A fresh backend spec for [f] (file-backed specs get their own temp
   paths), whose files are removed when [f] returns or raises. *)
let with_spec cfg f =
  let spec =
    Odex_obcheck.Registry.backend_spec ~shards:cfg.shards ~journal:cfg.journal cfg.backend
  in
  Fun.protect ~finally:(fun () -> Storage.remove_spec_files spec) (fun () -> f spec)

(* A fresh store for [f], closed when [f] returns or raises. Traces are
   digested so records carry their length and spans. *)
let with_store ?telemetry:tel cfg ~b f =
  with_spec cfg (fun spec ->
      let tel = match tel with Some t -> t | None -> telemetry cfg in
      let s =
        Storage.create ?cipher:(key cfg) ?cipher_engine:cfg.cipher
          ~seal_domains:cfg.seal_domains ~telemetry:tel ~trace_mode:Trace.Digest ~backend:spec
          ~block_size:b ()
      in
      Fun.protect ~finally:(fun () -> Storage.close s) (fun () -> f s))

let cells_of_keys keys =
  Array.mapi (fun i k -> Cell.item ~tag:i ~key:k ~value:(k * 3) ()) keys

type shape = Uniform | Ascending | Descending | All_equal | Few_distinct

let shape_name = function
  | Uniform -> "uniform"
  | Ascending -> "ascending"
  | Descending -> "descending"
  | All_equal -> "all-equal"
  | Few_distinct -> "few-distinct"

let keys ~rng ~n = function
  | Uniform -> Array.init n (fun _ -> Odex_crypto.Rng.int rng (max 1 (4 * n)))
  | Ascending -> Array.init n (fun i -> i)
  | Descending -> Array.init n (fun i -> n - i)
  | All_equal -> Array.make n 7
  | Few_distinct -> Array.init n (fun i -> i mod 5)

(* A fresh store holding an array of [n] cells of the given shape. *)
let with_array cfg ~rng ~b ~n shape f =
  with_store cfg ~b (fun s ->
      f s (Ext_array.of_cells s ~block_size:b (cells_of_keys (keys ~rng ~n shape))))

(* A fresh store holding a consolidated-style array: [occupied] of its
   [n] blocks hold full payloads, spread evenly. *)
let with_blocks cfg ~b ~n ~occupied f =
  with_store cfg ~b (fun s ->
      let a = Ext_array.create s ~blocks:n in
      let stride = max 1 (n / max 1 occupied) in
      let placed = ref 0 in
      let pos = ref 0 in
      while !placed < occupied && !pos < n do
        let seed = !placed + 1 in
        let blk =
          Array.init b (fun j -> Cell.item ~tag:j ~key:((seed * 100) + j) ~value:seed ())
        in
        Storage.unchecked_poke s (Ext_array.addr a !pos) blk;
        incr placed;
        pos := !pos + stride
      done;
      f s a)
