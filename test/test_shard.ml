(* The sharded storage layer: PRP striping bijectivity, exact
   result/trace/stats parity between sharded and single-device runs for
   every registered algorithm, obliviousness at every shard count, the
   stripe's fault contract, and the store-owned worker pool. *)

open Odex_extmem
open Odex_obcheck

(* --- striping law -------------------------------------------------- *)

(* The fan-out must be a bijection on block indices: distinct logical
   addresses map to distinct (shard, inner address) slots, the inner
   address is always a/K, [logical] inverts [route], and within each
   K-aligned group the shard assignment is a permutation of the K
   devices. *)
let qcheck_route_bijection =
  Util.qcheck_case ~count:200 ~name:"stripe map is a striping bijection"
    QCheck2.Gen.(triple (int_range 1 8) (int_range 0 0xFFFF) (int_range 1 512))
    (fun (shards, seed, n) ->
      let stripe = Backend.Stripe.create ~shards ~seed in
      let seen = Hashtbl.create n in
      for a = 0 to n - 1 do
        let s, inner = Backend.Stripe.route stripe a in
        if s < 0 || s >= shards then
          QCheck2.Test.fail_reportf "addr %d: shard %d out of range [0,%d)" a s shards;
        if inner <> a / shards then
          QCheck2.Test.fail_reportf "addr %d: inner %d, want %d" a inner (a / shards);
        let back = Backend.Stripe.logical stripe ~shard:s ~inner in
        if back <> a then
          QCheck2.Test.fail_reportf "addr %d: logical (route a) = %d" a back;
        if Hashtbl.mem seen (s, inner) then
          QCheck2.Test.fail_reportf "addr %d: slot (%d,%d) already taken" a s inner;
        Hashtbl.add seen (s, inner) a
      done;
      (* Each complete group occupies every shard exactly once. *)
      let groups = n / shards in
      for g = 0 to groups - 1 do
        for s = 0 to shards - 1 do
          if not (Hashtbl.mem seen (s, g)) then
            QCheck2.Test.fail_reportf "group %d misses shard %d" g s
        done
      done;
      true)

(* --- raw store roundtrip at odd shard counts ----------------------- *)

let test_roundtrip_shards () =
  List.iter
    (fun k ->
      let backend = Storage.Sharded { inner = Storage.Mem; shards = k; seed = 0x5A4D } in
      let s = Storage.create ~backend ~block_size:4 () in
      Fun.protect
        ~finally:(fun () -> Storage.close s)
        (fun () ->
          let n = 37 in
          let base = Storage.alloc s n in
          for i = 0 to n - 1 do
            let blk = Block.make 4 in
            blk.(0) <- Cell.item ~key:i ~value:(i * 3) ();
            Storage.write s (base + i) blk
          done;
          (* Batched read across every stripe boundary. *)
          let blks = Storage.read_many s base n in
          for i = 0 to n - 1 do
            match blks.(i).(0) with
            | Cell.Item it ->
                Alcotest.(check int) (Printf.sprintf "K=%d key %d" k i) i it.key;
                Alcotest.(check int) (Printf.sprintf "K=%d value %d" k i) (i * 3) it.value
            | Cell.Empty -> Alcotest.failf "K=%d: block %d came back empty" k i
          done;
          let per_shard = Storage.shard_ios s in
          Alcotest.(check int) (Printf.sprintf "K=%d shard count" k) k (Array.length per_shard);
          (* The devices served n uncounted zero-fill writes (alloc),
             n counted writes and n counted reads: per-shard tallies are
             the physical view, not just the counted one. *)
          Alcotest.(check int)
            (Printf.sprintf "K=%d ops conserved" k)
            (3 * n)
            (Array.fold_left ( + ) 0 per_shard)))
    [ 1; 2; 3; 4; 5; 8 ]

(* --- sharded vs single-device parity for every algorithm ----------- *)

(* One monitored run of a registry subject on a given backend spec:
   trace digest/length, stats, per-shard ops and the final content of
   the input window. The algorithm's coins are fixed, so any divergence
   between backends is the sharding layer's fault. *)
let run_subject (e : Registry.entry) backend =
  let s =
    Storage.create ~trace_mode:Trace.Digest ~backend ~backoff:(0., 0.) ~block_size:e.b ()
  in
  Fun.protect
    ~finally:(fun () -> Storage.close s)
    (fun () ->
      let cells, _ = Pairtest.pair_inputs ~seed:0x51A2D ~n:e.n_cells in
      let arr = Ext_array.of_cells s ~block_size:e.b cells in
      let rng = Odex_crypto.Rng.create ~seed:0x51A2D in
      e.subject.Pairtest.run ~rng ~m:e.m s arr;
      let tr = Storage.trace s and st = Storage.stats s in
      ( Trace.digest tr,
        Trace.length tr,
        (Stats.reads st, Stats.writes st, Stats.retries st, Stats.bytes_moved st),
        Storage.shard_ios s,
        Ext_array.to_cells arr ))

let parity_case (e : Registry.entry) =
  let name = e.subject.Pairtest.name in
  (* A [`Multi_server] subject deliberately runs a different protocol on
     a k >= 2 stripe (its combined trace is occupancy-dependent there),
     so cross-K parity only applies to its K=1 fallback; the K >= 2
     behaviour is covered by the multiserver suite. *)
  let ks = if Registry.multi_server e then [ 1 ] else [ 1; 2; 4 ] in
  Alcotest.test_case
    (Printf.sprintf "parity %s K=%s" name (String.concat "/" (List.map string_of_int ks)))
    `Quick
    (fun () ->
      let d0, l0, st0, sh0, cells0 = run_subject e Storage.Mem in
      Alcotest.(check int) "unsharded store reports no shards" 0 (Array.length sh0);
      List.iter
        (fun k ->
          let backend = Storage.Sharded { inner = Storage.Mem; shards = k; seed = 0x5A4D } in
          let d, l, st, sh, cells = run_subject e backend in
          let tag fmt = Printf.sprintf "%s K=%d: %s" name k fmt in
          Alcotest.(check int64) (tag "trace digest") d0 d;
          Alcotest.(check int) (tag "trace length") l0 l;
          let r0, w0, rt0, by0 = st0 and r, w, rt, by = st in
          Alcotest.(check int) (tag "reads") r0 r;
          Alcotest.(check int) (tag "writes") w0 w;
          Alcotest.(check int) (tag "retries") rt0 rt;
          Alcotest.(check int) (tag "bytes moved") by0 by;
          Alcotest.(check int) (tag "shard count") k (Array.length sh);
          Alcotest.(check bool)
            (tag "result cells identical")
            true
            (cells0 = cells))
        ks)

let parity_cases = List.map parity_case Registry.all

(* --- pair-tested obliviousness at every shard count ---------------- *)

(* The full operational check on sharded devices: the logical trace AND
   the per-shard op counts must agree across a value-disjoint pair —
   on mem, on files (one per shard), and with the fault injector
   composed outside the stripe (retries must line up too). *)
let sharded_pair_cases =
  List.concat_map
    (fun backend_name ->
      List.filter_map
        (fun (e : Registry.entry) ->
          (* Keep the expensive legs to a representative subset: the
             scan-phase algorithms plus one ORAM. *)
          let name = e.subject.Pairtest.name in
          if
            not
              (List.mem name
                 [
                   "consolidation";
                   "selection";
                   "quantiles";
                   "sort";
                   "hier-oram";
                   "bucket-sort";
                   "oblivious-permutation";
                   "twoserver-compaction";
                 ])
          then None
          else
            Some
              (Alcotest.test_case
                 (Printf.sprintf "pair %s [%s K=4]" name backend_name)
                 `Quick
                 (fun () ->
                   let spec = Registry.backend_spec ~shards:4 backend_name in
                   Fun.protect
                     ~finally:(fun () -> Storage.remove_spec_files spec)
                     (fun () ->
                       let o =
                         Pairtest.check ~backend:spec ~pair:(Registry.pair_mode e)
                           ~multi_server:(Registry.multi_server e) e.subject
                           ~n_cells:e.n_cells ~b:e.b ~m:e.m
                       in
                       Alcotest.(check bool)
                         (Format.asprintf "%a" Pairtest.pp_outcome o)
                         true o.oblivious;
                       Alcotest.(check int) "per-shard view present" 4
                         (Array.length o.run_a.Pairtest.shard_ios);
                       if backend_name = "faulty" then
                         Alcotest.(check bool) "faults actually injected" true
                           (o.run_a.Pairtest.retries > 0)))))
        Registry.all)
    Registry.backend_names

(* --- the stripe's fault contract ------------------------------------ *)

let stripe_k = 4
let stripe_seed = 0x5A4D
let stripe_map = Backend.Stripe.create ~shards:stripe_k ~seed:stripe_seed
let stripe_payload = 16
let fault_plan i = { Backend.seed = 0x77 + i; failure_rate = 0.2; max_burst = 2 }

(* The payload of logical block [a]: its address in every 8-byte word. *)
let fill_block buf ~off a =
  for j = 0 to (stripe_payload / 8) - 1 do
    Odex_crypto.Bigbuf.set64_le buf (off + (j * 8)) (Int64.of_int a)
  done

let block_is buf ~off a = Odex_crypto.Bigbuf.get64_le buf off = Int64.of_int a

(* [Faulty] inside the stripe: each member gates its own accesses, so a
   run faults on several shards at once and the stripe must aggregate.
   The expected fault comes from twin members with the same plans,
   driven one shard at a time: the smallest logical address any of them
   faults at, or [None]. *)
let twin_fault twins ~lo ~hi =
  let k = stripe_k in
  let buf = Odex_crypto.Bigbuf.create (hi * stripe_payload) in
  let first = ref None in
  for s = 0 to k - 1 do
    let inner =
      List.filter_map
        (fun a ->
          let s', g = Backend.Stripe.route stripe_map a in
          if s' = s then Some (g, a) else None)
        (List.init (hi - lo) (fun i -> lo + i))
    in
    match inner with
    | [] -> ()
    | (g0, _) :: _ -> (
        let count = List.length inner in
        match
          Backend.write_run twins.(s) ~addr:g0 ~count ~payload:stripe_payload ~buf ~off:0
        with
        | () -> ()
        | exception Backend.Transient { addr = gf; _ } ->
            let a = List.assoc gf inner in
            if Option.fold ~none:true ~some:(fun b -> a < b) !first then first := Some a)
  done;
  !first

let test_stripe_fault_contract () =
  let k = stripe_k and n = 8 * stripe_k in
  let pool = Workers.create (k - 1) in
  Fun.protect ~finally:(fun () -> Workers.close pool) @@ fun () ->
  let devices = Array.init k (fun _ -> Backend.mem ~payload_size:stripe_payload ()) in
  let stripe =
    Backend.sharded ~seed:stripe_seed ~pool
      (Array.mapi (fun i d -> Backend.faulty (fault_plan i) d) devices)
  in
  let twins =
    Array.init k (fun i ->
        Backend.faulty (fault_plan i) (Backend.mem ~payload_size:stripe_payload ()))
  in
  Backend.ensure stripe n;
  Array.iter (fun tw -> Backend.ensure tw (n / k)) twins;
  let landed a =
    let s, g = Backend.Stripe.route stripe_map a in
    let b = Odex_crypto.Bigbuf.create stripe_payload in
    Backend.read_run devices.(s) ~addr:g ~count:1 ~payload:stripe_payload ~buf:b ~off:0;
    block_is b ~off:0 a
  in
  (* Resume from each fault, as Storage's retry engine does, until the
     whole run has gone through. The first attempts span >= 2K blocks
     (the pooled path); a short tail runs inline through the same
     aggregation. *)
  let drive ~write buf =
    let faults = ref 0 in
    let rec go lo =
      let expect = twin_fault twins ~lo ~hi:n in
      let op = if write then Backend.write_run else Backend.read_run in
      match
        op stripe ~addr:lo ~count:(n - lo) ~payload:stripe_payload ~buf
          ~off:(lo * stripe_payload)
      with
      | () -> Alcotest.(check (option int)) "no fault expected" expect None
      | exception Backend.Transient { addr = fa; _ } ->
          incr faults;
          Alcotest.(check (option int)) "smallest faulted logical address" expect (Some fa);
          for a = lo to fa - 1 do
            if write && not (landed a) then
              Alcotest.failf "block %d below fault %d not written" a fa;
            if (not write) && not (block_is buf ~off:(a * stripe_payload) a) then
              Alcotest.failf "block %d below fault %d not read" a fa
          done;
          if !faults > 1000 then Alcotest.fail "stripe never completed the run";
          go fa
    in
    go 0;
    !faults
  in
  let src = Odex_crypto.Bigbuf.create (n * stripe_payload) in
  for a = 0 to n - 1 do
    fill_block src ~off:(a * stripe_payload) a
  done;
  let wf = drive ~write:true src in
  let rf = drive ~write:false (Odex_crypto.Bigbuf.create (n * stripe_payload)) in
  Alcotest.(check bool) "faults hit both directions" true (wf > 0 && rf > 0);
  (* A non-transient failure is a bug, not weather: it wins over the
     transients the other shards raise in the same run. *)
  let always = { Backend.seed = 1; failure_rate = 1.0; max_burst = 1 } in
  let broken =
    Backend.sharded ~seed:stripe_seed ~pool
      (Array.init k (fun i ->
           let d = Backend.mem ~payload_size:stripe_payload () in
           if i = k - 1 then Backend.crash_after ~ops:0 d else Backend.faulty always d))
  in
  Backend.ensure broken n;
  Alcotest.check_raises "non-transient beats transient" Backend.Crashed (fun () ->
      Backend.write_run broken ~addr:0 ~count:n ~payload:stripe_payload ~buf:src ~off:0)

(* The same weather through Storage: batched transfers over a stripe of
   faulty members retry to completion and round-trip every block. *)
let test_storage_over_faulty_stripe () =
  let backend =
    Storage.Sharded
      {
        inner =
          Storage.Faulty { inner = Storage.Mem; seed = 0x31; failure_rate = 0.1; max_burst = 2 };
        shards = 4;
        seed = stripe_seed;
      }
  in
  let s = Storage.create ~backend ~backoff:(0., 0.) ~block_size:4 () in
  Fun.protect ~finally:(fun () -> Storage.close s) @@ fun () ->
  let n = 64 in
  let base = Storage.alloc s n in
  Storage.write_many s base
    (Array.init n (fun i ->
         let blk = Block.make 4 in
         blk.(0) <- Cell.item ~key:i ~value:(i * 7) ();
         blk));
  let blks = Storage.read_many s base n in
  Array.iteri
    (fun i blk ->
      match blk.(0) with
      | Cell.Item it -> Alcotest.(check int) (Printf.sprintf "block %d" i) (i * 7) it.value
      | Cell.Empty -> Alcotest.failf "block %d came back empty" i)
    blks;
  Alcotest.(check bool) "retries were needed" true (Stats.retries (Storage.stats s) > 0)

(* --- the shared worker pool ---------------------------------------- *)

let test_workers_run () =
  let pool = Workers.create 2 in
  Fun.protect ~finally:(fun () -> Workers.close pool) @@ fun () ->
  let self = Domain.self () in
  let ran = Array.make 3 false in
  let outcomes =
    Workers.run pool
      [|
        (fun () -> ran.(0) <- Domain.self () = self);
        (fun () -> ran.(1) <- Domain.self () <> self);
        (fun () -> failwith "job 2");
      |]
  in
  Alcotest.(check (array bool))
    "job 0 on the caller, job 1 on a worker" [| true; true; false |] ran;
  Alcotest.(check bool) "outcomes in job order" true
    (match outcomes with [| None; None; Some (Failure m) |] -> m = "job 2" | _ -> false);
  Alcotest.check_raises "more jobs than size + 1"
    (Invalid_argument "Workers.run: 4 jobs for 2 workers") (fun () ->
      ignore (Workers.run pool (Array.make 4 ignore)));
  Workers.close pool;
  Workers.close pool

(* Every store joins its pool: 200 stores that each spawned three
   workers would hit OCaml 5's 128-domain limit if a single worker
   outlived its store, whether the store was closed or abandoned. *)
let test_pool_lifecycle () =
  let backend = Storage.Sharded { inner = Storage.Mem; shards = 4; seed = stripe_seed } in
  for i = 1 to 200 do
    let s =
      Storage.create ~cipher:(Odex_crypto.Cipher.key_of_int i) ~seal_domains:2 ~backend
        ~block_size:4 ()
    in
    let base = Storage.alloc s 16 in
    Storage.write_many s base (Array.init 16 (fun _ -> Block.make 4));
    if i mod 2 = 0 then Storage.close s else Storage.abandon s
  done

(* --- sharded length survives close/reopen -------------------------- *)

let test_sharded_file_persistence () =
  let path = Filename.temp_file "odex_shardtest" ".store" in
  let backend = Storage.Sharded { inner = Storage.File { path }; shards = 3; seed = 0x5A4D } in
  Fun.protect
    ~finally:(fun () -> Storage.remove_spec_files backend)
    (fun () ->
      let key = Odex_crypto.Cipher.key_of_int 0x7E57 in
      let n = 17 in
      let s = Storage.create ~cipher:key ~backend ~block_size:4 () in
      let base = Storage.alloc s n in
      for i = 0 to n - 1 do
        let blk = Block.make 4 in
        blk.(0) <- Cell.item ~key:(100 + i) ~value:i ();
        Storage.write s (base + i) blk
      done;
      Storage.close s;
      (* Reopen: the length prefix on shard 0's meta blob must restore
         the exact block count (inner device sizes alone round up to a
         whole group), and every block must decrypt. *)
      let s2 = Storage.create ~cipher:key ~backend ~resume:true ~block_size:4 () in
      Fun.protect
        ~finally:(fun () -> Storage.close s2)
        (fun () ->
          Alcotest.(check int) "resumed capacity is exact" n (Storage.capacity s2);
          let blks = Storage.read_many s2 base n in
          for i = 0 to n - 1 do
            match blks.(i).(0) with
            | Cell.Item it -> Alcotest.(check int) "key" (100 + i) it.key
            | Cell.Empty -> Alcotest.failf "block %d empty after reopen" i
          done))

(* A journal outside the stripe commits its pending tail through the
   stripe on close, so the store's pool must still be open then: closing
   with records pending must not raise, must apply the group, and must
   release every descriptor. *)
let test_journaled_stripe_close k () =
  let path = Filename.temp_file "odex_shardtest" ".store" in
  let jpath = Filename.temp_file "odex_shardtest" ".journal" in
  let backend =
    Storage.Journaled
      {
        inner = Storage.Sharded { inner = Storage.File { path }; shards = k; seed = stripe_seed };
        path = jpath;
        durable = false;
      }
  in
  let open_fds () =
    if Sys.file_exists "/proc/self/fd" then Some (Array.length (Sys.readdir "/proc/self/fd"))
    else None
  in
  Fun.protect
    ~finally:(fun () -> Storage.remove_spec_files backend)
    (fun () ->
      let before = open_fds () in
      let n = 8 in
      let s = Storage.create ~backend ~block_size:4 () in
      let base = Storage.alloc s n in
      Storage.write_many s base
        (Array.init n (fun i ->
             let blk = Block.make 4 in
             blk.(0) <- Cell.item ~key:(200 + i) ~value:i ();
             blk));
      Storage.close s;
      Alcotest.(check (option int)) "close released every descriptor" before (open_fds ());
      let s = Storage.create ~backend ~resume:true ~block_size:4 () in
      Fun.protect
        ~finally:(fun () -> Storage.close s)
        (fun () ->
          let blks = Storage.read_many s base n in
          Array.iteri
            (fun i blk ->
              match blk.(0) with
              | Cell.Item it -> Alcotest.(check int) (Printf.sprintf "block %d" i) (200 + i) it.key
              | Cell.Empty -> Alcotest.failf "block %d empty after reopen" i)
            blks);
      Alcotest.(check (option int)) "reopen released every descriptor" before (open_fds ()))

let test_nested_sharded_rejected () =
  let backend =
    Storage.Sharded
      {
        inner = Storage.Sharded { inner = Storage.Mem; shards = 2; seed = 1 };
        shards = 2;
        seed = 2;
      }
  in
  Alcotest.check_raises "nested stripe rejected"
    (Invalid_argument "Storage: nested Sharded specs are not supported") (fun () ->
      ignore (Storage.create ~backend ~block_size:4 ()))

let suite =
  [
    qcheck_route_bijection;
    Alcotest.test_case "roundtrip at K=1..8" `Quick test_roundtrip_shards;
    Alcotest.test_case "stripe fault contract [Faulty inside K=4]" `Quick
      test_stripe_fault_contract;
    Alcotest.test_case "storage round trip over a faulty stripe" `Quick
      test_storage_over_faulty_stripe;
    Alcotest.test_case "workers run and reject oversize batches" `Quick test_workers_run;
    Alcotest.test_case "pool lifecycle over 200 stores" `Quick test_pool_lifecycle;
    Alcotest.test_case "file persistence across reopen [K=3]" `Quick
      test_sharded_file_persistence;
    Alcotest.test_case "nested sharding rejected" `Quick test_nested_sharded_rejected;
    Alcotest.test_case "journaled stripe closes with records pending [K=2]" `Quick
      (test_journaled_stripe_close 2);
    Alcotest.test_case "journaled stripe closes with records pending [K=4]" `Quick
      (test_journaled_stripe_close 4);
  ]
  @ parity_cases @ sharded_pair_cases
