(* One function per experiment of the DESIGN.md index (E1–E18). Each runs
   its workloads once and returns a report: the records the JSON
   renderer writes, the tables the text renderer prints (EXPERIMENTS.md
   records them), and the checked claims that failed. *)

open Odex_extmem
open Odex
module Cipher = Odex_crypto.Cipher
module Ext_sort = Odex_sortnet.Ext_sort

type report = { records : Record.t list; tables : Table.t list; failures : string list }

let report ?(records = []) ?(failures = []) tables = { records; tables; failures }
let rng_of seed = Odex_crypto.Rng.create ~seed
let ios = Record.total_ios

(* ------------------------------------------------------------------ *)
(* E1 — Figure 1: the butterfly compaction network. *)

let e1 cfg =
  (* The exact instance of the paper's Figure 1. *)
  let levels =
    Workloads.with_blocks cfg ~b:2 ~n:16 ~occupied:0 (fun s a ->
        List.iter
          (fun p ->
            Storage.unchecked_poke s (Ext_array.addr a p)
              [| Cell.item ~key:p ~value:p (); Cell.item ~key:p ~value:1 () |])
          [ 2; 4; 5; 9; 12; 13; 15 ];
        Butterfly.naive_levels a)
  in
  let rows =
    List.mapi
      (fun i row ->
        Table.fint i :: List.map (fun d -> if d < 0 then "." else string_of_int d) row)
      levels
  in
  (* Lemma 5 on random instances: the router raises on any collision. *)
  let rng = rng_of 11 in
  let trials = 200 in
  let collisions = ref 0 in
  for _ = 1 to trials do
    let n = 2 + Odex_crypto.Rng.int rng 120 in
    let occ = List.filter (fun _ -> Odex_crypto.Rng.bool rng) (List.init n (fun i -> i)) in
    Workloads.with_blocks cfg ~b:2 ~n ~occupied:0 (fun s arr ->
        List.iteri
          (fun j p ->
            Storage.unchecked_poke s (Ext_array.addr arr p)
              [| Cell.item ~key:j ~value:j (); Cell.empty |])
          occ;
        try ignore (Butterfly.compact ~m:5 arr) with Butterfly.Collision _ -> incr collisions)
  done;
  report
    ~failures:
      (if !collisions = 0 then []
       else [ Printf.sprintf "E1: %d Lemma 5 collisions in %d random routings" !collisions trials ])
    [
      Table.make ~title:"E1 Figure 1: butterfly network, remaining-distance labels per level"
        ~header:("level" :: List.init 16 (fun i -> Printf.sprintf "c%d" i))
        ~notes:
          (Printf.sprintf
             "  occupied-label rows must read 2 3 3 6 8 8 9 / 2 2 2 6 8 8 8 / 0 0 0 4 8 8 8 /\n\
             \  0 0 0 0 8 8 8 / 0 0 0 0 0 0 0  (the figure's numbers)\n\
             \  Lemma 5 check: %d collisions in %d random routings (must be 0)\n"
             !collisions trials)
        rows;
    ]

(* ------------------------------------------------------------------ *)
(* E2 — Lemma 3: consolidation costs exactly 2·(N/B) I/Os, flat in R. *)

let e2 cfg =
  let b = 8 in
  let runs =
    List.concat_map
      (fun n_cells ->
        List.map
          (fun density ->
            let n_blocks = Emodel.ceil_div n_cells b in
            let rng = rng_of 2 in
            Workloads.with_array cfg ~rng ~b ~n:n_cells Workloads.Uniform (fun s a ->
                (* R/N = 100% is the default predicate: every item. *)
                let distinguished, name =
                  if density = 100 then (None, "consolidation")
                  else
                    ( Some (fun (it : Cell.item) -> it.key mod 100 < density),
                      Printf.sprintf "consolidation-r%d" density )
                in
                let r, _ =
                  Record.measure ~experiment:"E2" ~name ~n_cells ~b ~m:2
                    ~read:(fun _ ->
                      let c = Record.of_store s in
                      (c, c.reads + c.writes = 2 * n_blocks))
                    (fun () -> Consolidation.run ?distinguished ~into:None a)
                in
                (density, n_blocks, r)))
          [ 1; 25; 50; 100 ])
      [ 4096; 16384; 65536 ]
  in
  report
    ~records:(List.map (fun (_, _, r) -> r) runs)
    ~failures:
      (List.filter_map
         (fun (density, n_blocks, (r : Record.t)) ->
           if r.ok then None
           else
             Some
               (Printf.sprintf "E2: N = %d, R/N = %d%%: %d I/Os, Lemma 3 says 2*ceil(N/B) = %d"
                  r.n_cells density (ios r) (2 * n_blocks)))
         runs)
    [
      Table.make ~title:"E2 Lemma 3: consolidation I/Os (must equal 2*ceil(N/B), flat in R)"
        ~header:[ "N cells"; "R/N"; "I/Os"; "2*N/B" ]
        (List.map
           (fun (density, n_blocks, (r : Record.t)) ->
             [
               Table.fint r.n_cells;
               Printf.sprintf "%d%%" density;
               Table.fint (ios r);
               Table.fint (2 * n_blocks);
             ])
           runs);
    ]

(* ------------------------------------------------------------------ *)
(* E3 — Theorem 4: sparse IBLT compaction. *)

let e3 cfg =
  let b = 8 in
  let n = 512 in
  let rows =
    List.map
      (fun r ->
        Workloads.with_blocks cfg ~b ~n ~occupied:r (fun s a ->
            let out =
              Sparse_compaction.run ~m:4096 ~key:(Odex_crypto.Prf.key_of_int r)
                ~capacity:(r + 2) a
            in
            [
              Table.fint n;
              Table.fint r;
              Table.fint (Stats.total (Storage.stats s));
              Table.fbool out.Sparse_compaction.complete;
            ]))
      [ 4; 8; 16; 32; 64 ]
  in
  (* Decode success vs table multiplier delta (Lemma 1's threshold). *)
  let trials = 60 in
  let decodes =
    List.map
      (fun mult ->
        let fails = ref 0 in
        for t = 1 to trials do
          Workloads.with_blocks cfg ~b ~n:256 ~occupied:24 (fun _ a ->
              let out =
                Sparse_compaction.run ~multiplier:mult ~m:8192
                  ~key:(Odex_crypto.Prf.key_of_int ((mult * 1000) + t))
                  ~capacity:26 a
              in
              if not out.Sparse_compaction.complete then incr fails)
        done;
        [ Table.fint mult; Printf.sprintf "%d/%d" (trials - !fails) trials ])
      [ 1; 2; 3; 4 ]
  in
  report
    [
      Table.make
        ~title:"E3 Theorem 4: IBLT sparse compaction (I/Os linear in n, small slope in r)"
        ~header:[ "n blocks"; "r occupied"; "I/Os"; "complete" ]
        rows;
      Table.make ~title:"E3b Lemma 1 threshold: decode success vs table multiplier (k = 3)"
        ~header:[ "multiplier"; "decodes" ] decodes;
    ]

(* ------------------------------------------------------------------ *)
(* E4 — Theorem 6: butterfly compaction, the log m speedup. *)

let e4 cfg =
  let b = 4 in
  let records =
    List.concat_map
      (fun n ->
        List.map
          (fun m ->
            Workloads.with_blocks cfg ~b ~n ~occupied:(n / 3) (fun s a ->
                fst
                  (Record.measure ~experiment:"E4" ~name:"butterfly-compact" ~n_cells:(n * b) ~b
                     ~m
                     ~read:(fun _ -> Record.store s true)
                     (fun () -> Butterfly.compact ~m a))))
          [ 3; 16; 64; 256 ])
      [ 1024; 4096; 16384 ]
  in
  report ~records
    [
      Table.make
        ~title:
          "E4 Theorem 6: butterfly compaction I/Os; speedup vs n*log2(n) grows with log m"
        ~header:[ "n blocks"; "m"; "I/Os"; "n*lg n / I/Os" ]
        (List.map
           (fun (r : Record.t) ->
             let n = r.n_cells / b in
             let naive = Float.of_int n *. Float.of_int (Emodel.ilog2_ceil n) in
             [
               Table.fint n;
               Table.fint r.m;
               Table.fint (ios r);
               Table.fratio (naive /. Float.of_int (ios r));
             ])
           records);
    ]

(* ------------------------------------------------------------------ *)
(* E5 — Theorem 8: loose compaction is linear. *)

let e5 cfg =
  let b = 4 in
  let records =
    List.map
      (fun n ->
        Workloads.with_blocks cfg ~b ~n ~occupied:(n / 8) (fun s a ->
            let rng = rng_of 5 in
            fst
              (Record.measure ~experiment:"E5" ~name:"loose-compaction" ~n_cells:(n * b) ~b ~m:64
                 ~read:(fun out -> Record.store s out.Loose_compaction.ok)
                 (fun () -> Loose_compaction.run ~m:64 ~rng ~capacity:(n / 4) a))))
      [ 512; 1024; 2048; 4096; 8192 ]
  in
  report ~records
    [
      Table.make ~title:"E5 Theorem 8: loose compaction (I/Os per block must stay ~constant)"
        ~header:[ "n blocks"; "r"; "I/Os"; "I/Os per block"; "ok" ]
        (List.map
           (fun (r : Record.t) ->
             let n = r.n_cells / b in
             [
               Table.fint n;
               Table.fint (n / 8);
               Table.fint (ios r);
               Table.ffloat (Float.of_int (ios r) /. Float.of_int n);
               Table.fbool r.ok;
             ])
           records);
    ]

(* ------------------------------------------------------------------ *)
(* E6 — Theorem 9: log* compaction. *)

let e6 cfg =
  let b = 2 in
  let run ?sparse_threshold n =
    let r = n / 8 in
    Workloads.with_blocks cfg ~b ~n ~occupied:r (fun s a ->
        let rng = rng_of 6 in
        let forced = sparse_threshold <> None in
        let record, out =
          Record.measure ~experiment:"E6"
            ~name:(if forced then "logstar-compaction-forced" else "logstar-compaction")
            ~n_cells:(n * b) ~b ~m:32
            ~read:(fun out -> Record.store s out.Logstar_compaction.ok)
            (fun () ->
              Logstar_compaction.run ?sparse_threshold ~m:32 ~rng ~capacity:(n / 4) a)
        in
        let row =
          [
            Table.fint n;
            Table.fint r;
            (if forced then "forced" else "default");
            Table.fint (ios record);
            Table.ffloat (Float.of_int (ios record) /. Float.of_int n);
            Table.fint out.Logstar_compaction.phases;
            Table.fint (Emodel.log_star n);
            Table.fbool record.ok;
          ]
        in
        (record, row))
  in
  let runs =
    List.map (fun n -> run n) [ 512; 1024; 2048; 4096 ]
    @ List.map (fun n -> run ~sparse_threshold:0 n) [ 2048; 4096 ]
  in
  report ~records:(List.map fst runs)
    [
      Table.make
        ~title:
          "E6 Theorem 9: log* compaction. The tower constants put every feasible n in the\n\
          \   zero-phase regime (the paper's asymptotics start at log n > 32); 'forced' rows\n\
          \   drive the phase machinery with the threshold overridden to 0."
        ~header:[ "n blocks"; "r"; "mode"; "I/Os"; "I/Os per block"; "phases"; "log* n"; "ok" ]
        (List.map snd runs);
    ]

(* ------------------------------------------------------------------ *)
(* E7 — Theorems 12/13: selection. *)

(* A deliberately NON-oblivious baseline: external-memory quickselect.
   Linear I/Os, but the trace depends on the data. *)
let leaky_quickselect ~rng s a k =
  let b = Ext_array.block_size a in
  let rec go (arr : Ext_array.t) count k =
    if count * 2 <= Ext_array.cells arr || Ext_array.blocks arr <= 4 then begin
      (* small enough: read everything, pick privately *)
      let items = ref [] in
      for i = 0 to Ext_array.blocks arr - 1 do
        Array.iter
          (fun c -> match c with Cell.Empty -> () | Cell.Item it -> items := it :: !items)
          (Ext_array.read_block arr i)
      done;
      let sorted = List.sort (fun (x : Cell.item) y -> compare (x.key, x.tag) (y.key, y.tag)) !items in
      List.nth sorted (k - 1)
    end
    else begin
      (* pick a pivot, partition into two fresh arrays *)
      let pos = Odex_crypto.Rng.int rng count in
      let pivot = ref None in
      let seen = ref 0 in
      for i = 0 to Ext_array.blocks arr - 1 do
        Array.iter
          (fun c ->
            match c with
            | Cell.Empty -> ()
            | Cell.Item it ->
                if !seen = pos then pivot := Some it;
                incr seen)
          (Ext_array.read_block arr i)
      done;
      let p = Option.get !pivot in
      let lo = Ext_array.create s ~blocks:(Ext_array.blocks arr) in
      let hi = Ext_array.create s ~blocks:(Ext_array.blocks arr) in
      let nlo = ref 0 and nhi = ref 0 in
      let lo_blk = ref (Block.make b) and hi_blk = ref (Block.make b) in
      let lo_fill = ref 0 and hi_fill = ref 0 in
      let lo_cursor = ref 0 and hi_cursor = ref 0 in
      let flush which =
        match which with
        | `Lo ->
            Ext_array.write_block lo !lo_cursor !lo_blk;
            incr lo_cursor;
            lo_blk := Block.make b;
            lo_fill := 0
        | `Hi ->
            Ext_array.write_block hi !hi_cursor !hi_blk;
            incr hi_cursor;
            hi_blk := Block.make b;
            hi_fill := 0
      in
      for i = 0 to Ext_array.blocks arr - 1 do
        Array.iter
          (fun c ->
            match c with
            | Cell.Empty -> ()
            | Cell.Item it ->
                if compare (it.key, it.tag) (p.key, p.tag) <= 0 then begin
                  !lo_blk.(!lo_fill) <- Cell.Item it;
                  incr lo_fill;
                  incr nlo;
                  if !lo_fill = b then flush `Lo
                end
                else begin
                  !hi_blk.(!hi_fill) <- Cell.Item it;
                  incr hi_fill;
                  incr nhi;
                  if !hi_fill = b then flush `Hi
                end)
          (Ext_array.read_block arr i)
      done;
      if !lo_fill > 0 then flush `Lo;
      if !hi_fill > 0 then flush `Hi;
      if k <= !nlo then go (Ext_array.sub lo ~off:0 ~len:(max 1 !lo_cursor)) !nlo k
      else go (Ext_array.sub hi ~off:0 ~len:(max 1 !hi_cursor)) !nhi (k - !nlo)
    end
  in
  let count =
    let c = ref 0 in
    for i = 0 to Ext_array.blocks a - 1 do
      c := !c + Block.count_items (Ext_array.read_block a i)
    done;
    !c
  in
  go a count k

let e7 cfg =
  let b = 8 in
  let m = 64 in
  let runs =
    List.map
      (fun n ->
        let k = n / 2 in
        (* Every leg gets the same input: a fresh uniform array from seed 7. *)
        let leg name f =
          let rng = rng_of 7 in
          Workloads.with_array cfg ~rng ~b ~n Workloads.Uniform (fun s a ->
              fst
                (Record.measure ~experiment:"E7" ~name ~n_cells:n ~b ~m
                   ~read:(fun ok -> Record.store s ok)
                   (fun () -> f ~rng s a)))
        in
        [
          leg "selection" (fun ~rng _ a -> (Selection.select ~m ~rng ~k a).Selection.ok);
          leg "selection-e0.25" (fun ~rng _ a ->
              (Selection.select_with_delta ~exponent:0.25 ~m ~rng
                 ~delta:(fun s0 -> 3. *. Float.sqrt s0)
                 ~k a)
                .Selection.ok);
          leg "sort-scan" (fun ~rng:_ _ a ->
              Ext_sort.run Ext_sort.bitonic_windowed ~m a;
              for i = 0 to Ext_array.blocks a - 1 do
                ignore (Ext_array.read_block a i)
              done;
              true);
          leg "leaky-quickselect" (fun ~rng s a ->
              ignore (leaky_quickselect ~rng s a k);
              true);
        ])
      [ 4096; 16384; 65536; 262144 ]
  in
  let row = function
    | [ paper; quarter; sort_scan; leaky ] ->
        let flagged (r : Record.t) = Table.fint (ios r) ^ if r.ok then "" else "*" in
        [
          Table.fint paper.Record.n_cells;
          flagged paper;
          flagged quarter;
          Table.fint (ios sort_scan);
          Table.fint (ios leaky);
          Table.fratio (Float.of_int (ios sort_scan) /. Float.of_int (ios quarter));
        ]
    | _ -> assert false
  in
  report ~records:(List.concat runs)
    [
      Table.make
        ~title:
          "E7 Theorems 12/13: selection I/Os vs oblivious sort-then-scan and leaky quickselect"
        ~header:
          [ "N cells"; "select e=1/2"; "select e=1/4"; "sort+scan"; "leaky qsel"; "win" ]
        ~notes:"  (* = a randomized bound tripped; the trace is unchanged)\n"
        (List.map row runs);
    ]

(* ------------------------------------------------------------------ *)
(* E8 — Theorem 17: quantiles. *)

let e8 cfg =
  let b = 8 in
  (* m = 64 exercises the paper's easy case ((M/B)^4 >= N/B: sort a
     copy); m = 8 with N/B > 4096 forces the sampling path. *)
  let runs =
    List.concat_map
      (fun (n, m) ->
        List.map
          (fun q ->
            let rng = rng_of 8 in
            Workloads.with_array cfg ~rng ~b ~n Workloads.Uniform (fun s a ->
                let r, _ =
                  Record.measure ~experiment:"E8" ~name:(Printf.sprintf "quantiles-q%d" q)
                    ~n_cells:n ~b ~m
                    ~read:(fun r -> Record.store s r.Quantiles.ok)
                    (fun () -> Quantiles.run ~m ~rng ~q a)
                in
                ( r,
                  [
                    Table.fint n;
                    Table.fint m;
                    (if m * m * m * m >= n / b then "sort" else "sample");
                    Table.fint q;
                    Table.fint (ios r);
                    Table.ffloat (Float.of_int (ios r) /. Float.of_int (n / b));
                    Table.fbool r.ok;
                  ] )))
          [ 2; 4; 8 ])
      [ (8192, 64); (32768, 64); (65536, 8) ]
  in
  report ~records:(List.map fst runs)
    [
      Table.make ~title:"E8 Theorem 17: quantiles (I/Os per block roughly flat in N and q)"
        ~header:[ "N cells"; "m"; "path"; "q"; "I/Os"; "I/Os per block"; "ok" ]
        (List.map snd runs);
    ]

(* ------------------------------------------------------------------ *)
(* E9 — Theorem 21: sorting, the headline. *)

let e9 cfg =
  let b = 8 in
  let sort_run ~name ~n ~m f =
    let rng = rng_of 9 in
    Workloads.with_array cfg ~rng ~b ~n Workloads.Uniform (fun s a ->
        fst
          (Record.measure ~experiment:"E9" ~name ~n_cells:n ~b ~m
             ~read:(fun ok -> Record.store s ok)
             (fun () -> f ~rng ~m a)))
  in
  let net engine ~rng:_ ~m a =
    Ext_sort.run engine ~m a;
    true
  in
  let variants =
    [
      ("thm21", fun ~rng ~m a -> (Sort.run ~sweep:false ~m ~rng a).Sort.ok);
      ( "thm21-paper",
        fun ~rng ~m a -> (Sort.run ~sweep:false ~bucket_engine:`Loose ~m ~rng a).Sort.ok );
      ("thm21+sweep", fun ~rng ~m a -> (Sort.run ~sweep:true ~m ~rng a).Sort.ok);
      ("bitonic", net Ext_sort.bitonic);
      ("bitonic-win", net Ext_sort.bitonic_windowed);
    ]
  in
  let runs =
    List.concat_map
      (fun n ->
        List.map
          (fun m ->
            let sorts = List.map (fun (v, f) -> sort_run ~name:("sort-" ^ v) ~n ~m f) variants in
            let columnsort =
              match Odex_sortnet.Columnsort.plan ~n_cells:n ~b ~m with
              | None -> None
              | Some _ -> Some (sort_run ~name:"sort-columnsort" ~n ~m (net Ext_sort.columnsort))
            in
            (n, m, sorts, columnsort))
          [ 64; 256; 1024 ])
      [ 8192; 32768; 131072 ]
  in
  let rows =
    List.map
      (fun (n, m, sorts, columnsort) ->
        let get name = ios (List.find (fun (r : Record.t) -> r.name = "sort-" ^ name) sorts) in
        let bound = Emodel.sort_io_bound ~n_blocks:(n / b) ~m_blocks:m in
        (Table.fint n :: Table.fint m :: List.map (fun r -> Table.fint (ios r)) sorts)
        @ [
            (match columnsort with None -> "n/a" | Some r -> Table.fint (ios r));
            Table.fint (Float.to_int bound);
            Table.fratio (Float.of_int (get "bitonic-win") /. Float.of_int (get "thm21"));
          ])
      runs
  in
  (* Input-shape independence: identical I/O counts across shapes. *)
  let n = 16384 and m = 64 in
  let shapes =
    List.map
      (fun shape ->
        let rng = rng_of 9 in
        Workloads.with_array cfg ~rng ~b ~n shape (fun s a ->
            let rng = rng_of 99 in
            let r, _ =
              Record.measure ~experiment:"E9"
                ~name:("sort-thm21-" ^ Workloads.shape_name shape)
                ~n_cells:n ~b ~m
                ~read:(fun out -> Record.store s out.Sort.ok)
                (fun () -> Sort.run ~sweep:false ~m ~rng a)
            in
            ( r,
              [
                Workloads.shape_name shape;
                Table.fint (ios r);
                Printf.sprintf "%016Lx" (Trace.digest (Storage.trace s));
              ] )))
      Workloads.[ Uniform; Ascending; Descending; All_equal; Few_distinct ]
  in
  report
    ~records:
      (List.concat_map (fun (_, _, sorts, c) -> sorts @ Option.to_list c) runs
      @ List.map fst shapes)
    [
      Table.make
        ~title:
          "E9 Theorem 21: sorting I/Os vs deterministic baselines (win = bitonic-win / thm21)"
        ~header:
          [
            "N cells"; "m"; "thm21"; "thm21-paper"; "thm21+sweep"; "bitonic"; "bitonic-win";
            "columnsort"; "AV bound"; "win";
          ]
        rows;
      Table.make ~title:"E9b shape-independence: same coins, different data => identical traces"
        ~header:[ "input shape"; "I/Os"; "trace digest" ]
        (List.map snd shapes);
    ]

(* ------------------------------------------------------------------ *)
(* E10 — the ORAM corollary: better sorting => cheaper ORAM epochs. *)

let e10 cfg =
  let b = 4 and m = 64 in
  (* Each leg returns its access count; the row divides I/Os by it. *)
  let leg ~name n f =
    Workloads.with_store cfg ~b (fun s ->
        Record.measure ~experiment:"E10" ~name ~n_cells:n ~b ~m
          ~read:(fun _ -> Record.store s true)
          (fun () -> f s))
  in
  let sqrt_oram n sorter s =
    let rng = rng_of 10 in
    let t = Odex_oram.Sqrt_oram.init ~sorter ~m ~rng s ~values:(Array.make n 0) in
    let ops = ref 0 in
    while Odex_oram.Sqrt_oram.epochs t < 2 do
      ignore (Odex_oram.Sqrt_oram.read t (!ops * 13 mod n));
      incr ops
    done;
    !ops
  in
  let linear_oram n s =
    let t = Odex_oram.Linear_oram.init s ~values:(Array.make n 0) in
    for i = 1 to 32 do
      ignore (Odex_oram.Linear_oram.read t (i mod n))
    done;
    32
  in
  (* Hierarchical ORAM: amortized over one full bottom-rebuild cycle. *)
  let hier_oram n sorter s =
    let rng = rng_of 10 in
    let t = Odex_oram.Hierarchical_oram.init ~sorter ~m ~rng s ~values:(Array.make n 0) in
    let z = Odex_oram.Hierarchical_oram.bucket_size t in
    let cycle = z * (1 lsl (Odex_oram.Hierarchical_oram.levels t - 1)) in
    let ops = min 4096 cycle in
    for i = 1 to ops do
      ignore (Odex_oram.Hierarchical_oram.read t (i * 13 mod n))
    done;
    ops
  in
  let runs =
    List.map
      (fun n ->
        [
          leg ~name:"linear-oram" n (linear_oram n);
          leg ~name:"sqrt-oram-bitonic" n (sqrt_oram n Ext_sort.bitonic);
          leg ~name:"sqrt-oram-bitonic-win" n (sqrt_oram n Ext_sort.bitonic_windowed);
          leg ~name:"hier-oram-bitonic" n (hier_oram n Ext_sort.bitonic);
          leg ~name:"hier-oram-bitonic-win" n (hier_oram n Ext_sort.bitonic_windowed);
        ])
      [ 1024; 4096; 16384 ]
  in
  let per_access (r, ops) = Float.of_int (ios r) /. Float.of_int ops in
  let row = function
    | [ lin; naive; win; hnaive; hwin ] ->
        let n = (fst lin).Record.n_cells in
        let lin, naive, win, hnaive, hwin =
          (per_access lin, per_access naive, per_access win, per_access hnaive, per_access hwin)
        in
        [
          Table.fint n;
          Table.ffloat lin;
          Table.ffloat naive;
          Table.ffloat win;
          Table.fratio (naive /. win);
          Table.ffloat hnaive;
          Table.ffloat hwin;
          Table.fratio (hnaive /. hwin);
        ]
    | _ -> assert false
  in
  report
    ~records:(List.concat_map (List.map fst) runs)
    [
      Table.make
        ~title:
          "E10 ORAM corollary: amortized I/Os per access by reshuffle/rebuild sorter\n\
          \   (the naive/windowed ratios are the paper's log-factor ORAM improvement)"
        ~header:
          [
            "n words"; "linear"; "sqrt naive"; "sqrt win"; "sqrt ratio"; "hier naive"; "hier win";
            "hier ratio";
          ]
        (List.map row runs);
    ]

(* ------------------------------------------------------------------ *)
(* E11 — obliviousness: the audit table across all algorithms, and one
   record per obcheck pair test (run A's counters plus the verdict). *)

let e11 (cfg : Workloads.config) =
  let rng = rng_of 11 in
  let inputs = Oblivious.input_classes ~rng ~n:960 in
  let subjects =
    [
      { Oblivious.name = "consolidation"; run = (fun _ _ a -> ignore (Consolidation.run ~into:None a)) };
      { Oblivious.name = "butterfly"; run = (fun _ _ a ->
            let d = Consolidation.run ~into:None a in
            ignore (Butterfly.compact ~m:8 d)) };
      { Oblivious.name = "sparse-compaction"; run = (fun _ _ a ->
            let d = Consolidation.run ~into:None a in
            ignore (Sparse_compaction.run ~m:4096 ~key:(Odex_crypto.Prf.key_of_int 1)
                      ~capacity:(Ext_array.blocks d) d)) };
      { Oblivious.name = "loose-compaction"; run = (fun rng _ a ->
            let d = Consolidation.run ~into:None a in
            ignore (Loose_compaction.run ~m:64 ~rng ~capacity:(Ext_array.blocks d / 4) d)) };
      { Oblivious.name = "logstar-compaction"; run = (fun rng _ a ->
            let d = Consolidation.run ~into:None a in
            ignore (Logstar_compaction.run ~m:64 ~rng ~capacity:(Ext_array.blocks d / 4) d)) };
      { Oblivious.name = "selection"; run = (fun rng _ a ->
            ignore (Selection.select ~m:16 ~rng ~k:100 a)) };
      { Oblivious.name = "quantiles"; run = (fun rng _ a ->
            ignore (Quantiles.run ~m:16 ~rng ~q:3 a)) };
      { Oblivious.name = "sort-thm21"; run = (fun rng _ a -> ignore (Sort.run ~m:16 ~rng a)) };
      { Oblivious.name = "sort-bitonic"; run = (fun _ _ a ->
            Ext_sort.run Ext_sort.bitonic_windowed ~m:16 a) };
      (* Leaky baselines that must FAIL the audit. *)
      { Oblivious.name = "leaky-quickselect (baseline)"; run = (fun rng s a ->
            ignore (leaky_quickselect ~rng s a 100)) };
    ]
  in
  let rows =
    List.map
      (fun subject ->
        let report = Oblivious.audit ~b:4 ~inputs subject in
        let lengths =
          List.map (fun o -> string_of_int o.Oblivious.length) report.Oblivious.observations
        in
        [
          report.Oblivious.subject;
          String.concat "/" lengths;
          (if report.Oblivious.oblivious then "OBLIVIOUS" else "LEAKS");
        ])
      subjects
  in
  let pair (e : Odex_obcheck.Registry.entry) =
    Workloads.with_spec cfg (fun spec ->
        let telemetry = Workloads.telemetry cfg in
        fst
          (Record.measure ~experiment:"E11" ~name:("pair-" ^ e.subject.name) ~n_cells:e.n_cells
             ~b:e.b ~m:e.m
             ~read:(fun (o : Odex_obcheck.Pairtest.outcome) ->
               (Record.of_pair ~telemetry ~cipher:cfg.cipher o, o.oblivious))
             (fun () ->
               Odex_obcheck.Pairtest.check ~backend:spec ~telemetry ?cipher:(Workloads.key cfg)
                 ?cipher_engine:cfg.cipher ~seal_domains:cfg.seal_domains
                 ~pair:(Odex_obcheck.Registry.pair_mode e)
                 ~multi_server:(Odex_obcheck.Registry.multi_server e) e.subject
                 ~n_cells:e.n_cells ~b:e.b ~m:e.m)))
  in
  report
    ~records:(List.map pair Odex_obcheck.Registry.all)
    [
      Table.make ~title:"E11 obliviousness audit: fixed coins, 5 contrasting inputs (960 cells)"
        ~header:[ "algorithm"; "I/Os per input class"; "verdict" ]
        rows;
    ]

(* ------------------------------------------------------------------ *)
(* E12 — Lemma 1: IBLT decode success vs load. *)

let e12 _ =
  let n = 60 in
  let trials = 120 in
  let rows =
    List.concat_map
      (fun k ->
        List.map
          (fun load_pct ->
            (* m = n / load *)
            let size = max k (n * 100 / load_pct) in
            let ok = ref 0 in
            for t = 1 to trials do
              let tbl =
                Odex_iblt.Iblt.create ~k ~size (Odex_crypto.Prf.key_of_int ((k * 10000) + t))
              in
              for x = 0 to n - 1 do
                Odex_iblt.Iblt.insert tbl ~key:x ~value:x
              done;
              let _, complete = Odex_iblt.Iblt.list_entries tbl in
              if complete then incr ok
            done;
            [
              Table.fint k;
              Printf.sprintf "%d%%" load_pct;
              Table.fint size;
              Table.fprob (Float.of_int !ok /. Float.of_int trials);
            ])
          [ 20; 40; 60; 80; 90; 95 ])
      [ 3; 4; 5 ]
  in
  report
    [
      (* The doubled percent signs are part of the recorded title. *)
      Table.make
        ~title:
          "E12 Lemma 1: IBLT listEntries success rate vs load n/m (sharp threshold near \
           81%%/77%%/70%% for k=3/4/5)"
        ~header:[ "k"; "load n/m"; "m cells"; "success" ]
        rows;
    ]

(* ------------------------------------------------------------------ *)
(* E13 — Lemmas 22/23: Chernoff calculators vs Monte-Carlo. *)

let e13 _ =
  let rng = rng_of 13 in
  let trials = 20000 in
  (* Lemma 22: binomial tail. *)
  let rows22 =
    List.map
      (fun (n, p, gamma) ->
        let mu = Float.of_int n *. p in
        let bound = Bounds.binomial_tail_lemma22 ~gamma ~mu in
        let hits = ref 0 in
        for _ = 1 to trials do
          let x = ref 0 in
          for _ = 1 to n do
            if Odex_crypto.Rng.bernoulli rng p then incr x
          done;
          if Float.of_int !x > gamma *. mu then incr hits
        done;
        let emp = Float.of_int !hits /. Float.of_int trials in
        [
          Printf.sprintf "n=%d p=%.2f g=%.1f" n p gamma;
          Table.fprob emp;
          Table.fprob bound;
          Table.fbool (bound >= emp);
        ])
      [ (200, 0.05, 6.0); (500, 0.02, 8.0); (1000, 0.01, 10.0) ]
  in
  (* Lemma 23: negative binomial tail. *)
  let rows23 =
    List.map
      (fun (n, p, t) ->
        let bound = Bounds.negative_binomial_tail_lemma23 ~n ~p ~t in
        let alpha = 1. /. p in
        let hits = ref 0 in
        for _ = 1 to trials do
          let x = ref 0 in
          for _ = 1 to n do
            x := !x + Odex_crypto.Rng.geometric rng p
          done;
          if Float.of_int !x > (alpha +. t) *. Float.of_int n then incr hits
        done;
        let emp = Float.of_int !hits /. Float.of_int trials in
        [
          Printf.sprintf "n=%d p=%.2f t=%.1f" n p t;
          Table.fprob emp;
          Table.fprob bound;
          Table.fbool (bound >= emp);
        ])
      [ (100, 0.5, 0.5); (100, 0.25, 2.0); (50, 0.1, 12.0) ]
  in
  report
    [
      Table.make ~title:"E13 Lemma 22: analytic bound vs Monte-Carlo tail (bound must dominate)"
        ~header:[ "parameters"; "empirical"; "bound"; "bound>=emp" ]
        rows22;
      Table.make ~title:"E13b Lemma 23: negative-binomial tail bound vs Monte-Carlo"
        ~header:[ "parameters"; "empirical"; "bound"; "bound>=emp" ]
        rows23;
    ]

(* ------------------------------------------------------------------ *)
(* E14 — Lemma 18 / Cor. 19: shuffle-and-deal color balance. *)

let e14 cfg =
  let b = 4 in
  let n = 4096 in
  let colors = 8 in
  let window = 64 in
  let trials = 30 in
  let max_count = ref 0 in
  let over_quota = ref 0 in
  let quota = (2 * Emodel.ceil_div window colors) + 1 in
  for t = 1 to trials do
    let rng = rng_of (140 + t) in
    Workloads.with_array cfg ~rng ~b ~n Workloads.Ascending (fun _ a ->
        let color_of (it : Cell.item) = it.key * colors / n in
        let mono = Multiway.consolidate ~colors ~color_of a in
        Shuffle_deal.shuffle ~rng mono;
        let counts = Shuffle_deal.window_color_counts ~colors ~color_of ~window mono in
        Array.iter
          (fun per_window ->
            Array.iter
              (fun c ->
                if c > !max_count then max_count := c;
                if c > quota then incr over_quota)
              per_window)
          counts)
  done;
  let windows_per_trial = Emodel.ceil_div ((n / b) + Multiway.tail_blocks colors) window in
  let total_cells = trials * windows_per_trial * colors in
  report
    [
      Table.make
        ~title:"E14 Lemma 18: post-shuffle color counts per deal window (ascending input!)"
        ~header:[ "window"; "colors"; "quota"; "max count seen"; "over-quota rate" ]
        ~notes:
          (Printf.sprintf
             "  expected per window per color = %d; the shuffle keeps the worst window near it \
              even\n\
             \  though the input was fully color-sorted.\n"
             (window / colors))
        [
          [
            Table.fint window;
            Table.fint colors;
            Table.fint quota;
            Table.fint !max_count;
            Printf.sprintf "%d/%d" !over_quota total_cells;
          ];
        ];
    ]

(* ------------------------------------------------------------------ *)
(* E15 — DESIGN.md §12: bucket oblivious sort vs the deterministic
   engines, counted I/Os at a cache where every engine's geometry is
   feasible (m = 128 >= the default-Z bucket floor of 4*zb + 2 = 114
   blocks at B = 8). Every record names its engine in [sorter] and is
   verified sorted; `--sorter` narrows the sweep to one engine.
   Columnsort's single-level geometry caps N at ~M^{3/2}: sizes past the
   cap are skipped for it (public geometry, not a sorting defect) and
   print n/a. The table stops at 32768 cells; the 131072-cell records
   are the bucket engine's bitonic fallback point (ROADMAP item 2a). *)

let e15 (cfg : Workloads.config) =
  let b = 8 and m = 128 in
  let engines =
    match cfg.sorter with Some name -> [ name ] | None -> [ "batcher"; "columnsort"; "bucket" ]
  in
  (* Uncounted sortedness sweep: unchecked peeks keep the verification
     out of the benched I/O counters and trace. *)
  let sorted s a =
    let prev = ref None and ok = ref true in
    for i = 0 to Ext_array.blocks a - 1 do
      List.iter
        (fun (it : Cell.item) ->
          (match !prev with Some p when p > it.key -> ok := false | _ -> ());
          prev := Some it.key)
        (Block.items (Storage.unchecked_peek s (Ext_array.addr a i)))
    done;
    !ok
  in
  let run name n =
    if name = "columnsort" && Odex_sortnet.Columnsort.plan ~n_cells:n ~b ~m = None then None
    else
      let rng = rng_of 13 in
      Workloads.with_array cfg ~rng ~b ~n Workloads.Uniform (fun s a ->
          let eng = Option.get (Ext_sort.find name) in
          Some
            (fst
               (Record.measure ~sorter:name ~experiment:"E15"
                  ~name:(Printf.sprintf "sort-%s-%d" name n)
                  ~n_cells:n ~b ~m
                  ~read:(fun ok -> Record.store s ok)
                  (fun () ->
                    match Ext_sort.run eng ~m a with
                    | () -> sorted s a
                    | exception Odex_sortnet.Bucket_sort.Overflow _ -> false))))
  in
  (* 1280 cells = 160 blocks is the smallest out-of-core point at m = 128:
     it brackets the engines' crossover from below. *)
  let sizes = [ 1280; 2048; 8192; 32768; 131072 ] in
  let runs = List.map (fun name -> (name, List.map (fun n -> (n, run name n)) sizes)) engines in
  let cell name n =
    match List.assoc n (List.assoc name runs) with None -> "n/a" | Some r -> Table.fint (ios r)
  in
  report
    ~records:(List.concat_map (fun (_, legs) -> List.filter_map snd legs) runs)
    [
      Table.make
        ~title:"E15 DESIGN.md 12: sorting-engine head-to-head, counted I/Os (B = 8, m = 128)"
        ~header:("N cells" :: engines)
        ~notes:
          "  bucket stays below batcher at every out-of-core N; columnsort leads inside its\n\
          \  one-level capacity (~18.9k cells here) and is n/a beyond it. EXPERIMENTS.md E15\n\
          \  records the crossovers.\n"
        (List.map
           (fun n -> Table.fint n :: List.map (fun name -> cell name n) engines)
           (List.filter (fun n -> n <= 32768) sizes));
    ]

(* ------------------------------------------------------------------ *)
(* E16 — DESIGN.md §13: seal/unseal throughput. One record per cipher
   engine: a mem store (so the device is not the bottleneck) streams
   runs through write_many/read_many while a private live sink times
   the Seal/Unseal ops Storage reports under the "cipher" pseudo
   backend; [seal_mb_per_s] is keystream throughput, [mb_per_s] the
   end-to-end transfer rate. *)

let e16 (cfg : Workloads.config) =
  let b = 8 and run_blocks = 256 and rounds = 24 in
  let records =
    List.map
      (fun engine ->
        let cfg = { cfg with backend = "mem"; shards = 1; cipher = Some engine } in
        Workloads.with_store ~telemetry:(Odex_telemetry.Telemetry.create ()) cfg ~b (fun s ->
            let base = Storage.alloc s run_blocks in
            let blks =
              Array.init run_blocks (fun i ->
                  let blk = Block.make b in
                  for j = 0 to b - 1 do
                    blk.(j) <- Cell.item ~tag:j ~key:((i * b) + j) ~value:i ()
                  done;
                  blk)
            in
            fst
              (Record.measure ~experiment:"E16"
                 ~name:
                   (Printf.sprintf "seal-roundtrip-%s-d%d" (Cipher.engine_name engine)
                      cfg.seal_domains)
                 ~n_cells:(run_blocks * b) ~b ~m:2
                 ~read:(fun () -> Record.store s true)
                 (fun () ->
                   for _ = 1 to rounds do
                     Storage.write_many s base blks;
                     ignore (Storage.read_many s base run_blocks)
                   done))))
      [ Cipher.Prf_xor; Cipher.Chacha20 ]
  in
  report ~records
    [
      Table.make
        ~title:
          "E16 DESIGN.md 13: seal/unseal round trips, 24 x 256-block runs (B = 8, mem store)"
        ~header:[ "cipher"; "domains"; "I/Os"; "keystream MB/s"; "end-to-end MB/s" ]
        (List.map
           (fun (r : Record.t) ->
             [
               r.c.cipher;
               Table.fint cfg.seal_domains;
               Table.fint (ios r);
               Table.ffloat (Record.seal_mb_per_s r.c.telemetry);
               Table.ffloat (Record.mb_per_s ~bytes:r.c.bytes_moved ~ns:(r.wall_ms *. 1e6));
             ])
           records);
    ]

(* ------------------------------------------------------------------ *)
(* E17 — DESIGN.md §10: crash-recovery cost against the journal's
   auto-commit threshold. The pending tail is bounded by
   [auto_commit_bytes], so that knob caps both legs of a recovery:
   the redo-replay of a committed-but-unapplied group and the scan that
   discards an unmarked tail. We fill the tail right up to the
   threshold, crash, and time the [replay:true] reopen. *)

let e17 _ =
  let payload_size = 256 in
  let record_bytes = 32 + payload_size in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1e3)
  in
  let payload i =
    Bytes.init payload_size (fun j -> Char.chr ((i + j) land 0xFF))
  in
  let with_temp_pair f =
    let sp = Filename.temp_file "odex_e17" ".store" in
    let jp = Filename.temp_file "odex_e17" ".journal" in
    Fun.protect
      ~finally:(fun () ->
        (try Sys.remove sp with Sys_error _ -> ());
        try Sys.remove jp with Sys_error _ -> ())
      (fun () -> f sp jp)
  in
  (* Largest group that fits under the threshold without tripping an
     auto-commit mid-fill. *)
  let group_of acb = acb / record_bytes in
  let fill j n =
    let b = Journal.backend j in
    Backend.ensure b n;
    for i = 0 to n - 1 do
      Backend.write b i (payload i)
    done;
    Journal.pending_bytes j + Journal.header_bytes
  in
  (* Replay leg: the commit marker lands, then the crash takes out the
     very first in-place apply — reopening must redo every record. *)
  let replay_leg acb =
    with_temp_pair (fun sp jp ->
        let n = group_of acb in
        let inner =
          Backend.crash_after ~ops:0 (Backend.file ~path:sp ~payload_size)
        in
        let j =
          Journal.create ~auto_commit_bytes:acb ~path:jp ~payload_size
            ~durable:false ~replay:false inner
        in
        let journal_bytes = fill j n in
        (match Journal.commit j with
        | () -> failwith "E17: expected the simulated crash"
        | exception Backend.Crashed -> ());
        Journal.abandon j;
        let inner = Backend.file ~path:sp ~payload_size in
        let j, ms =
          time (fun () ->
              Journal.create ~path:jp ~payload_size ~durable:false ~replay:true
                inner)
        in
        let replayed = List.length (Journal.replay_log j) in
        assert (replayed = n);
        Backend.close (Journal.backend j);
        (journal_bytes, replayed, ms))
  in
  (* Discard leg: the same tail but no marker — the reopen only scans
     the tail and truncates it; nothing is re-applied. *)
  let discard_leg acb =
    with_temp_pair (fun sp jp ->
        let n = group_of acb in
        let inner = Backend.file ~path:sp ~payload_size in
        let j =
          Journal.create ~auto_commit_bytes:acb ~path:jp ~payload_size
            ~durable:false ~replay:false inner
        in
        ignore (fill j n);
        Journal.abandon j;
        let inner = Backend.file ~path:sp ~payload_size in
        let j, ms =
          time (fun () ->
              Journal.create ~path:jp ~payload_size ~durable:false ~replay:true
                inner)
        in
        assert (Journal.replay_log j = []);
        Backend.close (Journal.backend j);
        ms)
  in
  let rows =
    List.map
      (fun acb ->
        let journal_bytes, replayed, replay_ms = replay_leg acb in
        let discard_ms = discard_leg acb in
        [
          Printf.sprintf "%d KiB" (acb / 1024);
          Table.fint journal_bytes;
          Table.fint replayed;
          Table.ffloat replay_ms;
          Table.ffloat discard_ms;
        ])
      [ 65536; 262144; 1048576; 4194304 ]
  in
  report
    [
      Table.make
        ~title:
          "E17 DESIGN.md 10: recovery time vs journal tail size (payload 256 B, \
           file store)"
        ~header:
          [ "auto-commit"; "tail bytes"; "replayed"; "replay ms"; "discard ms" ]
        ~notes:
          "  both recovery legs scale linearly with the tail, which auto_commit_bytes caps;\n\
          \  the 4 MiB default keeps worst-case replay under ~100 ms on a local\n\
          \  file store. Shrink it (odx --auto-commit-bytes) only to tighten the rollback\n\
          \  window on slow media, at the price of more fsync'd commit markers.\n"
        rows;
    ]

(* ------------------------------------------------------------------ *)
(* E18 — DESIGN.md §14: the multi-server model exploit, head to head.
   The same compaction workload at equal (N, B, M), measured twice: the
   classical single-server tight compaction on the configured store,
   then the two-server protocol on a stripe of `--servers` members. The
   protocol's whole point is that splitting the schedule across
   non-colluding servers buys strictly fewer I/Os — 3(N/B) + 3cap
   against the butterfly's 2(N/B)(1 + phases) — so the multi-server leg
   must land strictly below the baseline, or the run fails. *)

let e18 (cfg : Workloads.config) =
  let b = 8 and m = 64 and n_blocks = 1024 in
  let n_cells = n_blocks * b in
  (* One third occupied against a half-capacity target: the butterfly's
     cost is fixed by shape (2(N/B)(1 + phases), capacity-blind), while
     the two-server schedule scales with the target — 3(N/B) + 3cap. At
     m = 64 the butterfly needs 2 phases, so the margin is 6144 vs 4608. *)
  let capacity = n_blocks / 2 in
  let cells =
    Array.init n_cells (fun idx ->
        if idx / b mod 3 = 0 then Cell.item ~key:idx ~value:idx () else Cell.empty)
  in
  let leg ?servers cfg ~name compact =
    Workloads.with_store cfg ~b (fun s ->
        let a = Ext_array.of_cells s ~block_size:b cells in
        fst
          (Record.measure ?servers ~experiment:"E18" ~name ~n_cells ~b ~m
             ~read:(fun ok -> Record.store s ok)
             (fun () -> compact a)))
  in
  let single =
    leg cfg ~name:"tight-compaction-1server" (fun a ->
        (Compaction.tight ~m ~capacity_blocks:capacity a).Compaction.ok)
  in
  let k = cfg.servers in
  let multi =
    leg ~servers:k { cfg with shards = k }
      ~name:(Printf.sprintf "tight-compaction-%dserver" k)
      (fun a -> (Twoserver_compaction.run ~m ~capacity_blocks:capacity a).Twoserver_compaction.ok)
  in
  report ~records:[ single; multi ]
    ~failures:
      (if ios multi < ios single then []
       else
         [
           Printf.sprintf
             "E18: two-server compaction (%d I/Os) not below single-server (%d I/Os)"
             (ios multi) (ios single);
         ])
    [
      Table.make
        ~title:
          "E18 DESIGN.md 14: tight compaction, single server vs non-colluding servers\n\
          \   (N = 8192 cells, B = 8, m = 64; the multi-server leg must do fewer I/Os)"
        ~header:[ "servers"; "backend"; "shards"; "reads"; "writes"; "I/Os"; "ok" ]
        (List.map
           (fun (r : Record.t) ->
             [
               Table.fint r.servers;
               r.c.backend;
               Table.fint r.c.shards;
               Table.fint r.c.reads;
               Table.fint r.c.writes;
               Table.fint (ios r);
               Table.fbool r.ok;
             ])
           [ single; multi ]);
    ]

let all : (string * (Workloads.config -> report)) list =
  [
    ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6); ("E7", e7);
    ("E8", e8); ("E9", e9); ("E10", e10); ("E11", e11); ("E12", e12); ("E13", e13);
    ("E14", e14); ("E15", e15); ("E16", e16); ("E17", e17); ("E18", e18);
  ]
