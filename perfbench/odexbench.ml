(* odexbench — the repository benchmark.

   One process runs one workload in a closed loop with a single client:
   it builds job after job from [--seed] until [--seconds] have passed,
   times the library's public entry points from outside, checks every
   output out of the timed region, and prints one JSON line per call
   (counted I/Os, bytes moved, trace digest), a profile line, and — last
   — the result object:

     {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}

   [--trace 0] reports the end-to-end metrics with the disabled telemetry
   sink. [--trace 1] runs every job twice with the same inputs, first
   untraced and then with a live sink passed to [Storage.create
   ~telemetry], checks that both legs leave the same trace digest, and
   reports the per-layer metrics plus a "layers" detail line and a Chrome
   trace of the first traced job. README.md maps each layer metric to the
   end-to-end metric and workload it should move. *)

open Odex_extmem
module Tel = Odex_telemetry.Telemetry
module Rng = Odex_crypto.Rng
module Cipher = Odex_crypto.Cipher

let now = Tel.now_ns
let since t0 = Int64.sub (now ()) t0
let ms ns = Int64.to_float ns /. 1e6

(* Process CPU time (user + system, all domains; getrusage, microsecond
   resolution) in ns. The end-to-end times are CPU times, scaled below:
   on a shared virtual machine the wall clock also counts the time the
   hypervisor hands the vCPU to other guests, which a paravirtualised
   guest kernel leaves out of CPU time. Wall figures are kept in the
   profile line. *)
let cpu_now () = Int64.of_float (Sys.time () *. 1e9)
let cpu_since c0 = Int64.sub (cpu_now ()) c0

(* CPU time still moves with the host: on one virtual machine a sort job
   took 1.1 s of CPU time in one stretch of minutes and 1.8 s in another,
   as other guests loaded the shared cores and caches. A fixed reference
   kernel, timed before every job, moves with it. The end-to-end times are CPU
   times scaled by [reference_ms / median of the run's reference times]:
   CPU time on a machine where the reference takes [reference_ms]. The
   kernel is plain OCaml (the stdlib's array sort and hash table), so no
   change to the library moves it. *)
let reference_ms = 60.

let reference_cpu_ns () =
  let c0 = cpu_now () in
  let a = Array.init 150_000 (fun i -> ((i * 7919) + 13) land 0xFFFFF) in
  Array.sort compare a;
  let h = Hashtbl.create 1024 in
  Array.iteri (fun i x -> if i land 3 = 0 then Hashtbl.replace h x i) a;
  ignore (Sys.opaque_identity h);
  cpu_since c0

(* ------------------------------------------------------------------ *)
(* Command line *)

let workload = ref ""
let seed = ref (-1)
let seconds = ref 0.
let trace = ref (-1)
let out_dir = ref ".bench_out"
let rev = ref "unknown"

let parse_args () =
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME sort | sort-bucket | compact-2server | oram");
      ("--seed", Arg.Set_int seed, "N input seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, "S how long to keep starting jobs");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--out", Arg.Set_string out_dir, "DIR temp stores and Chrome traces (default .bench_out)");
      ("--rev", Arg.Set_string rev, "REV source revision recorded in the profile line");
    ]
  in
  let usage = "odexbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end

(* ------------------------------------------------------------------ *)
(* Inputs: every job's inputs are a function of (seed, job index) only,
   so the same job index replays the same inputs in every run. *)

let rng_for ~job salt = Rng.create ~seed:(Hashtbl.hash (!seed, job, salt))

let uniform_cells ~job n =
  let rng = rng_for ~job "keys" in
  Array.init n (fun i ->
      let k = Rng.int rng (4 * n) in
      Cell.item ~tag:i ~key:k ~value:(Rng.int rng 1_000_000_000) ())

(* One block in three occupied (full blocks, as compaction expects a
   consolidated array), at seeded positions. *)
let sparse_cells ~job ~b ~n_blocks =
  let rng = rng_for ~job "occupancy" in
  let cells = Array.make (n_blocks * b) Cell.empty in
  for blk = 0 to n_blocks - 1 do
    if Rng.int rng 3 = 0 then
      for j = 0 to b - 1 do
        let i = (blk * b) + j in
        cells.(i) <- Cell.item ~tag:i ~key:(Rng.int rng 1_000_000) ~value:blk ()
      done
  done;
  cells

(* ------------------------------------------------------------------ *)
(* Output checks, run out of the timed region through uncounted peeks. *)

let peek_cells s a =
  Array.concat
    (List.init (Ext_array.blocks a) (fun i -> Storage.unchecked_peek s (Ext_array.addr a i)))

(* Compaction and sorting may scribble on [aux]; it is not user data. *)
let same_item x y =
  match (x, y) with
  | Cell.Item p, Cell.Item q -> p.key = q.key && p.value = q.value && p.tag = q.tag
  | Cell.Empty, Cell.Empty -> true
  | _ -> false

let items cells = List.filter Cell.is_item (Array.to_list cells)

(* No item after an empty cell. *)
let items_first cells =
  let seen_empty = ref false and ok = ref true in
  Array.iter (fun c -> if Cell.is_empty c then seen_empty := true else if !seen_empty then ok := false) cells;
  !ok

(* Ordered by (key, tag) and the same multiset as the input: with unique
   tags that is exactly the input sorted. The order is spelled out here
   rather than taken from [Cell.compare_keys], which the sorts use. *)
let by_key_tag x y =
  match (x, y) with
  | Cell.Item p, Cell.Item q -> compare (p.key, p.tag) (q.key, q.tag)
  | _ -> invalid_arg "by_key_tag: empty cell"

let check_sorted ~input out =
  let expect = List.sort by_key_tag (items input) in
  let got = items out in
  items_first out && List.length got = List.length expect && List.for_all2 same_item expect got

(* Every occupied block kept, in order, within the capacity. *)
let check_compacted ~b ~capacity ~input out =
  let blocks cells = List.init (Array.length cells / b) (fun i -> Array.sub cells (i * b) b) in
  let occupied cells = List.filter (Array.exists Cell.is_item) (blocks cells) in
  let expect = occupied input and got = occupied out in
  Array.length out = capacity * b
  && items_first out
  && List.length got = List.length expect
  && List.for_all2 (fun x y -> Array.for_all2 same_item x y) expect got

(* ------------------------------------------------------------------ *)
(* Per-layer accumulation (traced jobs only). Every value is a sum over
   the traced jobs; ratios are formed at the end. *)

module Acc = struct
  let t : (string, float) Hashtbl.t = Hashtbl.create 64
  let add k v = Hashtbl.replace t k (v +. Option.value (Hashtbl.find_opt t k) ~default:0.)
  let get k = Option.value (Hashtbl.find_opt t k) ~default:0.
  let keys () = List.sort compare (Hashtbl.fold (fun k _ l -> k :: l) t [])
end

type opsum = { count : int; blocks : int; bytes : int; ns : int64 }

let op_totals tel =
  List.map
    (fun (o : Tel.op_stat) ->
      ( (o.op_backend, o.op),
        { count = o.count; blocks = o.op_blocks; bytes = o.op_bytes; ns = Tel.hist_total_ns o.latency } ))
    (Tel.op_stats tel)

let op_delta ~before after =
  List.map
    (fun (k, a) ->
      match List.assoc_opt k before with
      | None -> (k, a)
      | Some b ->
          ( k,
            { count = a.count - b.count; blocks = a.blocks - b.blocks; bytes = a.bytes - b.bytes;
              ns = Int64.sub a.ns b.ns } ))
    after

let counter_delta ~before after name =
  let get l = Option.value (List.assoc_opt name l) ~default:0 in
  get after - get before

(* Exclusive (self) time per phase label over the phases that started and
   ended inside [t0, t1]: a phase's duration minus that of its direct
   children. Telemetry records each phase with its nesting depth, so a
   stack over start order recovers the tree. Returns the per-label self
   times and the summed durations of the window's top-level phases. *)
let self_times tel ~t0 ~t1 =
  let ps =
    List.filter
      (fun (p : Tel.phase) -> p.start_ns >= t0 && Int64.add p.start_ns p.dur_ns <= t1)
      (Tel.phases tel)
  in
  let ps =
    Array.of_list
      (List.sort (fun (a : Tel.phase) (b : Tel.phase) -> compare (a.start_ns, a.depth) (b.start_ns, b.depth)) ps)
  in
  let self = Array.map (fun (p : Tel.phase) -> p.dur_ns) ps in
  let stack = ref [] and top_ns = ref 0L in
  let min_depth = Array.fold_left (fun d (p : Tel.phase) -> min d p.depth) max_int ps in
  Array.iteri
    (fun i (p : Tel.phase) ->
      let rec pop () =
        match !stack with j :: rest when ps.(j).depth >= p.depth -> stack := rest; pop () | _ -> ()
      in
      pop ();
      (match !stack with
      | j :: _ when ps.(j).depth = p.depth - 1 -> self.(j) <- Int64.sub self.(j) p.dur_ns
      | _ -> if p.depth = min_depth then top_ns := Int64.add !top_ns p.dur_ns);
      stack := i :: !stack)
    ps;
  let by_label = Hashtbl.create 16 in
  Array.iteri
    (fun i (p : Tel.phase) ->
      let prev = Option.value (Hashtbl.find_opt by_label p.label) ~default:0L in
      Hashtbl.replace by_label p.label (Int64.add prev self.(i)))
    ps;
  (Hashtbl.fold (fun l v acc -> (l, v) :: acc) by_label [], !top_ns)

(* Set when a traced job's phase self times fail to add up to its wall. *)
let accounting_ok = ref true

(* What a store and its sink have counted so far, taken at the start of a
   timed region so that set-up work is left out of the layer figures. *)
type before = {
  ops : ((string * Tel.op_kind) * opsum) list;
  counters : (string * int) list;
  stats : Stats.snapshot;
  appends : int;
  commits : int;
}

let snapshot st tel =
  {
    ops = op_totals tel;
    counters = Tel.counters tel;
    stats = Stats.snapshot (Storage.stats st);
    appends = List.length (Storage.journal_appends st);
    commits = Storage.journal_commits st;
  }

let stats_delta (a : Stats.snapshot) (b : Stats.snapshot) : Stats.snapshot =
  {
    Stats.reads = b.reads - a.reads;
    writes = b.writes - a.writes;
    retries = b.retries - a.retries;
    bytes_moved = b.bytes_moved - a.bytes_moved;
    batched_ios = b.batched_ios - a.batched_ios;
  }

(* Record one traced call's layer figures over the timed region
   [t0, t1]: backend and cipher time from the op histograms' exact totals,
   library phases' self time, cache counters and the store's exact
   counts. *)
let record_layers st ~tel (b : before) ~window:(t0, t1) ~wall_ns =
  let ops = op_delta ~before:b.ops (op_totals tel) in
  let dev_ns = ref 0L and cipher_ns = ref 0L in
  List.iter
    (fun ((backend, op), (o : opsum)) ->
      let opn = Tel.op_kind_name op in
      if backend = "cipher" then begin
        cipher_ns := Int64.add !cipher_ns o.ns;
        Acc.add ("cipher." ^ opn ^ "_ns") (Int64.to_float o.ns);
        Acc.add ("cipher." ^ opn ^ "_blocks") (float o.blocks);
        Acc.add "cipher.blocks" (float o.blocks);
        Acc.add "cipher.bytes" (float o.bytes)
      end
      else begin
        dev_ns := Int64.add !dev_ns o.ns;
        let k = Printf.sprintf "backend.%s.%s" backend opn in
        Acc.add (k ^ "_ns") (Int64.to_float o.ns);
        Acc.add (k ^ "_ops") (float o.count);
        Acc.add (k ^ "_blocks") (float o.blocks);
        Acc.add ("backend." ^ opn ^ "_ns") (Int64.to_float o.ns);
        Acc.add ("backend." ^ opn ^ "_ops") (float o.count);
        Acc.add ("backend." ^ opn ^ "_blocks") (float o.blocks)
      end)
    ops;
  Acc.add "backend.ns" (Int64.to_float !dev_ns);
  Acc.add "cipher.ns" (Int64.to_float !cipher_ns);
  Acc.add "cpu.self_ns" (Int64.to_float (Int64.sub (Int64.sub wall_ns !dev_ns) !cipher_ns));
  let selfs, top_ns = self_times tel ~t0 ~t1 in
  let lib_ns = ref 0L in
  List.iter
    (fun (label, ns) ->
      if not (String.starts_with ~prefix:"bench." label) then begin
        lib_ns := Int64.add !lib_ns ns;
        Acc.add ("phase." ^ label ^ ".self_ns") (Int64.to_float ns)
      end)
    selfs;
  (* The bench spans wrap every library phase, so their top-level
     durations cover the timed calls: self times must telescope to them. *)
  let summed = List.fold_left (fun a (_, ns) -> Int64.add a ns) 0L selfs in
  if Int64.abs (Int64.sub summed top_ns) > 1000L || top_ns > wall_ns then accounting_ok := false;
  Acc.add "phase.unattributed_ns" (Int64.to_float (Int64.sub wall_ns !lib_ns));
  List.iter
    (fun c -> Acc.add c (float (counter_delta ~before:b.counters (Tel.counters tel) c)))
    [ "cache.hit"; "cache.miss"; "cache.flush" ];
  let d = stats_delta b.stats (Stats.snapshot (Storage.stats st)) in
  Acc.add "storage.reads" (float d.reads);
  Acc.add "storage.writes" (float d.writes);
  Acc.add "storage.batched" (float d.batched_ios);
  Acc.add "storage.retries" (float d.retries);
  Acc.add "storage.trace_len" (float (Trace.length (Storage.trace st)));
  (match Storage.shard_ios st with
  | [||] -> ()
  | a ->
      let total = Array.fold_left ( + ) 0 a in
      let mx = Array.fold_left max 0 a in
      if total > 0 then begin
        Acc.add "shard.imbalance_sum" (float mx /. (float total /. float (Array.length a)));
        Acc.add "shard.stores" 1.
      end);
  let appends = List.filteri (fun i _ -> i >= b.appends) (Storage.journal_appends st) in
  Acc.add "journal.appended_blocks" (float (List.fold_left (fun a (_, n) -> a + n) 0 appends));
  Acc.add "journal.append_runs" (float (List.length appends));
  Acc.add "journal.commits" (float (Storage.journal_commits st - b.commits))

(* ------------------------------------------------------------------ *)
(* Calls: one store, one setup, one timed region, one check. *)

type call = {
  kind : string;
  create_ns : int64;
  load_ns : int64;
  setup_cpu_ns : int64;  (* CPU time of create + load *)
  wall_ns : int64;
  cpu_ns : int64;
  retried : int;  (* attempts beyond the first *)
  samples : float array;  (* per-access wall latencies in ms (oram only) *)
  cpu_samples : float array;  (* per-access CPU times in ms (oram only) *)
  ios : int;
  bytes : int;
  digest : int64;
  attempted : int;
  failed : int;
  sink : Tel.t;
}

let store_seq = ref 0

(* A fresh store under [--out]/tmp, removed again however [f] ends. *)
let with_store ~tel ~spec_of ?cipher ?(seal_domains = 1) ~b f =
  incr store_seq;
  let dir = Filename.concat !out_dir "tmp" in
  let base = Filename.concat dir (Printf.sprintf "%s-%d-%d" !workload (Unix.getpid ()) !store_seq) in
  let spec = spec_of base in
  Fun.protect
    ~finally:(fun () -> Storage.remove_spec_files spec)
    (fun () ->
      let t0 = now () and c0 = cpu_now () in
      let s =
        Tel.with_phase tel "bench.setup.create" (fun () ->
            Storage.create ?cipher ~cipher_engine:Cipher.Chacha20 ~seal_domains ~telemetry:tel
              ~backend:spec ~block_size:b ())
      in
      let create_ns = since t0 and create_cpu = cpu_since c0 in
      Fun.protect ~finally:(fun () -> Storage.close s) (fun () -> f s ~create_cpu create_ns))

let report_exn what e = Printf.eprintf "odexbench: %s raised %s\n%!" what (Printexc.to_string e)

(* One library call of a batch job, on a store of its own. [run] gets
   the job index, the attempt number and the loaded array and returns the
   library's ok flag and the output array. A call whose library reports
   ok = false is run again, up to [retries] times, on a fresh load of the
   input with fresh coins, inside the timed region: that is what a caller
   of a Monte Carlo algorithm that detects its own failures pays. *)
type batch_spec = {
  call_kind : string;
  spec_of : string -> Storage.backend_spec;
  cipher : Cipher.key option;
  seal_domains : int;
  retries : int;
  run : job:int -> attempt:int -> Ext_array.t -> bool * Ext_array.t;
}

let load tel s ~b cells = Tel.with_phase tel "bench.setup.load" (fun () -> Ext_array.of_cells s ~block_size:b cells)

(* Load [cells] ([Ext_array.of_cells], uncounted), time the call, then
   check the output. *)
let batch_call ~tel ~traced ~b ~cells ~check ~job (c : batch_spec) =
  let kind = c.call_kind in
  with_store ~tel ~spec_of:c.spec_of ?cipher:c.cipher ~seal_domains:c.seal_domains ~b (fun s ~create_cpu create_ns ->
      let t0 = now () and c0 = cpu_now () in
      let a = load tel s ~b cells in
      let load_ns = since t0 and load_cpu = cpu_since c0 in
      let before = snapshot s tel in
      let t1 = now () and c1 = cpu_now () in
      let retried = ref 0 in
      let rec attempt a =
        let lib_ok, out = c.run ~job ~attempt:!retried a in
        if lib_ok || !retried >= c.retries then (lib_ok, out)
        else begin
          Printf.eprintf "odexbench: job %d %s returned ok = false; retrying with fresh coins\n%!" job kind;
          incr retried;
          attempt (load tel s ~b cells)
        end
      in
      let result = try Ok (Tel.with_phase tel ("bench.job." ^ kind) (fun () -> attempt a)) with e -> Error e in
      let wall_ns = since t1 and cpu_ns = cpu_since c1 in
      let t2 = now () in
      let d = stats_delta before.stats (Stats.snapshot (Storage.stats s)) in
      if traced then begin
        Acc.add ("job." ^ kind ^ ".ns") (Int64.to_float wall_ns);
        Acc.add "job.retries" (float !retried);
        record_layers s ~tel before ~window:(t1, t2) ~wall_ns
      end;
      let ok =
        match result with
        | Error e -> report_exn kind e; false
        | Ok (lib_ok, out) ->
            if not lib_ok then Printf.eprintf "odexbench: %s returned ok = false\n%!" kind;
            let good = check (peek_cells s out) in
            if not good then Printf.eprintf "odexbench: %s produced a wrong output\n%!" kind;
            lib_ok && good
      in
      { kind; create_ns; load_ns; setup_cpu_ns = Int64.add create_cpu load_cpu; wall_ns; cpu_ns; retried = !retried;
        samples = [||]; cpu_samples = [||]; ios = d.reads + d.writes; bytes = d.bytes_moved;
        digest = Trace.digest (Storage.trace s); attempted = 1; failed = (if ok then 0 else 1); sink = tel })

(* ------------------------------------------------------------------ *)
(* Workloads *)

type workload = {
  name : string;
  why : string;
  stack : string;  (* backend stack under Storage *)
  flush : string;  (* flush policy *)
  shape : string;
  ops_per_job : int;  (* input cells per job, or accesses per oram session *)
  op_unit : string;
  batch : bool;
  (* Percentile of the tail figures in the profile line: the highest
     with at least ten samples beyond it at the benchmark's run length. *)
  tail_pct : float;
  job : tel:(unit -> Tel.t) -> traced:bool -> int -> call list;
  (* One more repetition of job [i]'s set-up (store creation and input
     load), outside the jobs, for the setup_s median: its CPU time. *)
  setup : int -> int64;
}

let batch_workload ~name ~why ~stack ~flush ~shape ~ops_per_job ~tail_pct ~b ~cells ~check specs =
  {
    name; why; stack; flush; shape; ops_per_job; op_unit = "cell"; batch = true; tail_pct;
    job =
      (fun ~tel ~traced job ->
        let input = cells job in
        List.map (batch_call ~tel:(tel ()) ~traced ~b ~cells:input ~check:(check input) ~job) specs);
    setup =
      (fun job ->
        let input = cells job in
        List.fold_left
          (fun acc (c : batch_spec) ->
            with_store ~tel:Tel.disabled ~spec_of:c.spec_of ?cipher:c.cipher ~seal_domains:c.seal_domains ~b
              (fun s ~create_cpu _ ->
                let c0 = cpu_now () in
                ignore (load Tel.disabled s ~b input);
                Int64.add acc (Int64.add create_cpu (cpu_since c0))))
          0L specs);
  }

let key_of_seed salt = Cipher.key_of_int (Hashtbl.hash (!seed, salt))

let sort_wl =
  let n = 32_768 and b = 8 and m = 128 in
  batch_workload ~name:"sort"
    ~why:"the paper's Theorem 21 sort: most algorithm CPU, cipher work and file syscalls per user byte"
    ~stack:"file, sealed with chacha20, seal_domains = 2"
    ~flush:"no fsync inside the job; Storage.close after the check writes the sealing header"
    ~shape:(Printf.sprintf "uniform keys, N = %d cells, B = %d, m = %d" n b m)
    ~ops_per_job:n ~tail_pct:50. ~b
    ~cells:(fun job -> uniform_cells ~job n)
    ~check:(fun input -> check_sorted ~input)
    [
      {
        call_kind = "sort_thm21";
        spec_of = (fun base -> Storage.File { path = base ^ ".store" });
        cipher = Some (key_of_seed "sort");
        seal_domains = 2;
        retries = 1;
        run =
          (fun ~job ~attempt a ->
            let coins = if attempt = 0 then "sort-coins" else Printf.sprintf "sort-coins-%d" attempt in
            ((Odex.Sort.run ~m ~rng:(rng_for ~job coins) a).Odex.Sort.ok, a));
      };
    ]

let bucket_n = 65_536
let bucket_b = 8
let bucket_m = 128

let sort_bucket_wl =
  let n = bucket_n and b = bucket_b and m = bucket_m in
  batch_workload ~name:"sort-bucket"
    ~why:"bucket oblivious sort on plaintext memory: almost all algorithm CPU, the control for cipher and device changes"
    ~stack:"mem, plaintext" ~flush:"none (memory store)"
    ~shape:(Printf.sprintf "uniform keys, N = %d cells, B = %d, m = %d" n b m)
    ~ops_per_job:n ~tail_pct:75. ~b
    ~cells:(fun job -> uniform_cells ~job n)
    ~check:(fun input -> check_sorted ~input)
    [
      {
        call_kind = "bucket";
        spec_of = (fun _ -> Storage.Mem);
        cipher = None;
        seal_domains = 1;
        retries = 0;
        run =
          (fun ~job ~attempt:_ a ->
            let sorter = Odex_sortnet.Ext_sort.bucket ~seed:(Hashtbl.hash (!seed, job, "bucket")) () in
            Odex_sortnet.Ext_sort.run sorter ~m a;
            (true, a));
      };
    ]

let compact_wl =
  let n = 131_072 and b = 8 and m = 64 in
  let capacity = n / (2 * b) in
  let spec_of _ = Storage.Sharded { inner = Storage.Mem; shards = 2; seed = Hashtbl.hash (!seed, "stripe") } in
  let call call_kind run =
    { call_kind; spec_of; cipher = None; seal_domains = 1; retries = 0; run = (fun ~job:_ ~attempt:_ a -> run a) }
  in
  batch_workload ~name:"compact-2server"
    ~why:"butterfly and two-server tight compaction on a 2-way stripe: shard dispatch and domain handoff dominate"
    ~stack:"sharded (K = 2) over mem, plaintext" ~flush:"none (memory stores)"
    ~shape:
      (Printf.sprintf "N = %d cells, one block in three occupied, capacity N/2B = %d blocks, B = %d, m = %d" n
         capacity b m)
    ~ops_per_job:(2 * n) ~tail_pct:75. ~b
    ~cells:(fun job -> sparse_cells ~job ~b ~n_blocks:(n / b))
    ~check:(fun input -> check_compacted ~b ~capacity ~input)
    [
      call "tight" (fun a ->
          let o = Odex.Compaction.tight ~m ~capacity_blocks:capacity a in
          (o.Odex.Compaction.ok, o.Odex.Compaction.dest));
      call "twoserver" (fun a ->
          let o = Odex.Twoserver_compaction.run ~m ~capacity_blocks:capacity a in
          (o.Odex.Twoserver_compaction.ok, o.Odex.Twoserver_compaction.dest));
    ]

let oram_words = 4096
let oram_accesses = 1024
(* The library default, ceil(log2 n) + 2 = 14, overflows a bucket in
   most 1 024-access sessions at n = 4 096 (README.md). *)
let oram_z = 64

let oram_wl =
  let b = 4 and m = 64 in
  let spec_of base =
    Storage.Journaled { inner = Storage.File { path = base ^ ".store" }; path = base ^ ".journal"; durable = true }
  in
  (* Initial words, then (write?, address, value) per access. *)
  let inputs job =
    let rng = rng_for ~job "oram" in
    let values = Array.init oram_words (fun _ -> Rng.int rng 1_000_000_000) in
    let plan =
      Array.init oram_accesses (fun _ ->
          let write = Rng.bool rng in
          let addr = Rng.int rng oram_words in
          (write, addr, Rng.int rng 1_000_000_000))
    in
    (values, plan)
  in
  let init tel s job values =
    Tel.with_phase tel "bench.setup.oram_init" (fun () ->
        Odex_oram.Hierarchical_oram.init ~bucket_size:oram_z ~m ~rng:(rng_for ~job "oram-coins") s ~values)
  in
  let session ~tel ~traced job =
    let values, plan = inputs job in
    with_store ~tel ~spec_of ~cipher:(key_of_seed "oram") ~b (fun s ~create_cpu create_ns ->
        let t0 = now () and c0 = cpu_now () in
        let oram = init tel s job values in
        let load_ns = since t0 and load_cpu = cpu_since c0 in
        let shadow = Array.copy values in
        let samples = Array.make oram_accesses 0. and cpu_samples = Array.make oram_accesses 0. in
        let failed = ref 0 and wall = ref 0L and cpu = ref 0L in
        let before = snapshot s tel in
        let rebuilds0 = Odex_oram.Hierarchical_oram.rebuilds oram in
        let w0 = now () in
        Array.iteri
          (fun i (write, addr, v) ->
            let label = if write then "bench.access.write" else "bench.access.read" in
            let t = now () and c = cpu_now () in
            let r =
              try
                Ok
                  (Tel.with_phase tel label (fun () ->
                       if write then (Odex_oram.Hierarchical_oram.write oram addr v; v)
                       else Odex_oram.Hierarchical_oram.read oram addr))
              with e -> Error e
            in
            let d = since t and dc = cpu_since c in
            wall := Int64.add !wall d;
            cpu := Int64.add !cpu dc;
            samples.(i) <- ms d;
            cpu_samples.(i) <- ms dc;
            if traced then Acc.add (if write then "job.write.ns" else "job.read.ns") (Int64.to_float d);
            if traced then Acc.add (if write then "access.writes" else "access.reads") 1.;
            match r with
            | Error e -> report_exn "oram access" e; incr failed
            | Ok got ->
                if write then shadow.(addr) <- v
                else if got <> shadow.(addr) then begin
                  Printf.eprintf "odexbench: oram read of word %d returned %d, expected %d\n%!" addr got
                    shadow.(addr);
                  incr failed
                end)
          plan;
        let w1 = now () in
        let d = stats_delta before.stats (Stats.snapshot (Storage.stats s)) in
        if not (Odex_oram.Hierarchical_oram.healthy oram) then begin
          prerr_endline "odexbench: an oram rebuild overflowed a bucket";
          incr failed
        end;
        if traced then begin
          Acc.add "setup.oram_init_ns" (Int64.to_float load_ns);
          Acc.add "oram.rebuilds" (float (Odex_oram.Hierarchical_oram.rebuilds oram - rebuilds0));
          record_layers s ~tel before ~window:(w0, w1) ~wall_ns:!wall
        end;
        { kind = "oram"; create_ns; load_ns; setup_cpu_ns = Int64.add create_cpu load_cpu; wall_ns = !wall;
          cpu_ns = !cpu; retried = 0; samples; cpu_samples; ios = d.reads + d.writes;
          bytes = d.bytes_moved; digest = Trace.digest (Storage.trace s); attempted = oram_accesses;
          failed = !failed; sink = tel })
  in
  {
    name = "oram";
    why = "hierarchical ORAM reads and writes on a durable journal: the per-block I/O path and rebuild latency spikes";
    stack = "journaled (durable) over file, sealed with chacha20";
    flush = "journal fsync on every commit; auto-commit at 4 MiB; every rebuild checkpoint commits";
    shape =
      Printf.sprintf
        "%d words, B = %d, m = %d, bucket size %d, sessions of %d accesses, 1:1 reads and writes, uniform addresses"
        oram_words b m oram_z oram_accesses;
    ops_per_job = oram_accesses;
    op_unit = "access";
    batch = false;
    tail_pct = 99.;
    job = (fun ~tel ~traced job -> [ session ~tel:(tel ()) ~traced job ]);
    setup =
      (fun job ->
        let values, _ = inputs job in
        with_store ~tel:Tel.disabled ~spec_of ~cipher:(key_of_seed "oram") ~b (fun s ~create_cpu _ ->
            let c0 = cpu_now () in
            ignore (init Tel.disabled s job values);
            Int64.add create_cpu (cpu_since c0)));
  }

let workloads = [ sort_wl; sort_bucket_wl; compact_wl; oram_wl ]
(* Extra set-ups per run: at least [setup_reps_min], then more until
   [setup_budget_s] of wall has gone, up to [setup_reps_max]. *)
let setup_reps_min = 8
let setup_reps_max = 200
let setup_budget_s = 1.5

(* ------------------------------------------------------------------ *)
(* Statistics and printing *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100. *. float n)) - 1)))

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0"

let json_obj fields = "{" ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) fields) ^ "}"

let print_job ~index ~traced (c : call) =
  print_endline
    (json_obj
       [
         ("type", json_string "job"); ("index", string_of_int index); ("call", json_string c.kind);
         ("traced", string_of_bool traced); ("wall_ms", json_num (ms c.wall_ns));
         ("cpu_ms", json_num (ms c.cpu_ns)); ("ios", string_of_int c.ios);
         ("bytes", string_of_int c.bytes);
         ("digest", json_string (Printf.sprintf "%016Lx" c.digest)); ("retried", string_of_int c.retried);
         ("failed", string_of_int c.failed);
       ])

let read_file path = try Some (In_channel.with_open_bin path In_channel.input_all) with Sys_error _ -> None

(* VmHWM from /proc/self/status, in MB. *)
let peak_rss_mb () =
  match read_file "/proc/self/status" with
  | None -> 0.
  | Some s ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> float_of_string kb /. 1024.
              | [] -> acc)
          | _ -> acc)
        0. (String.split_on_char '\n' s)

let cpu_model () =
  match read_file "/proc/cpuinfo" with
  | None -> "unknown"
  | Some s -> (
      match List.find_opt (String.starts_with ~prefix:"model name") (String.split_on_char '\n' s) with
      | Some l -> (
          match String.index_opt l ':' with
          | Some i -> String.trim (String.sub l (i + 1) (String.length l - i - 1))
          | None -> "unknown")
      | None -> "unknown")

(* ------------------------------------------------------------------ *)
(* Per-layer metrics, as listed in BENCHMARK.json. Times are per job
   (one algorithm call, a tight + two-server pair, or one oram session);
   layers a workload does not exercise read 0 in counts and shares. *)

let call_kinds = [ "sort_thm21"; "bucket"; "tight"; "twoserver"; "read"; "write" ]

(* Library phases reported as shares of job wall in the result line; all
   phases, with self times in ms, go to the "layers" detail line. *)
let reported_phases =
  [
    "sort.consolidate"; "sort.shuffle"; "sort.deal"; "sort.compact-buckets"; "sort.finalize";
    "sort.sweep"; "sort.pivots"; "consolidation"; "butterfly.label"; "butterfly.route"; "ts-stage";
    "ts-route"; "ts-deliver"; "hier-oram.rebuild"; "hier-oram.probe"; "hier-oram.stash-scan";
  ]

let per_layer ~jobs ~overhead ~plan =
  let nj = float (max 1 jobs) in
  let per k = Acc.get k /. nj in
  let ms_per k = Acc.get k /. 1e6 /. nj in
  let ratio a b = if b > 0. then a /. b else 0. in
  let wall = Acc.get "job.ns" in
  let ios = Acc.get "storage.reads" +. Acc.get "storage.writes" in
  let runs = Acc.get "backend.read_run_ops" +. Acc.get "backend.write_run_ops" in
  let run_blocks = Acc.get "backend.read_run_blocks" +. Acc.get "backend.write_run_blocks" in
  let cache = Acc.get "cache.hit" +. Acc.get "cache.miss" in
  let zb, beta = match plan with Some (p : Odex_sortnet.Bucket_sort.plan) -> (p.zb, p.beta) | None -> (0, 0) in
  [
    ("setup.create_ms", ms_per "setup.create_ns", "ms");
    ("setup.load_ms", ms_per "setup.load_ns", "ms");
    ("job.ms", ms_per "job.ns", "ms");
    ("job.retries", per "job.retries", "count");
  ]
  @ List.map (fun k -> ("job." ^ k ^ ".share", ratio (Acc.get ("job." ^ k ^ ".ns")) wall, "ratio")) call_kinds
  @ [
      ("backend.ms", ms_per "backend.ns", "ms");
      ("backend.read_ms", (Acc.get "backend.read_ns" +. Acc.get "backend.read_run_ns") /. 1e6 /. nj, "ms");
      ("backend.write_ms", (Acc.get "backend.write_ns" +. Acc.get "backend.write_run_ns") /. 1e6 /. nj, "ms");
      ("backend.ns_per_io", ratio (Acc.get "backend.ns") ios, "ns");
      ("backend.read_run_ops", per "backend.read_run_ops", "count");
      ("backend.write_run_ops", per "backend.write_run_ops", "count");
      ("backend.blocks_per_run", ratio run_blocks runs, "blocks");
      ("backend.share", ratio (Acc.get "backend.ns") wall, "ratio");
      ("shard.imbalance", ratio (Acc.get "shard.imbalance_sum") (Acc.get "shard.stores"), "ratio");
      ("journal.appended_blocks", per "journal.appended_blocks", "count");
      ("journal.append_runs", per "journal.append_runs", "count");
      ("journal.commits", per "journal.commits", "count");
      ("journal.share", ratio (Acc.get "backend.journaled.write_ns" +. Acc.get "backend.journaled.write_run_ns"
         +. Acc.get "backend.journaled.sync_ns") wall, "ratio");
      ("cipher.share", ratio (Acc.get "cipher.ns") wall, "ratio");
      ("cipher.seal_blocks", per "cipher.seal_blocks", "count");
      ("cipher.unseal_blocks", per "cipher.unseal_blocks", "count");
      ("cipher.mb_per_s", ratio (Acc.get "cipher.bytes" /. 1e6) (Acc.get "cipher.ns" /. 1e9), "MB/s");
      ("cpu.self_ms", ms_per "cpu.self_ns", "ms");
      ("cpu.ns_per_io", ratio (Acc.get "cpu.self_ns") ios, "ns");
      ("cpu.share", ratio (Acc.get "cpu.self_ns") wall, "ratio");
      ("phase.unattributed_ms", ms_per "phase.unattributed_ns", "ms");
    ]
  @ List.map (fun l -> ("phase." ^ l ^ ".share", ratio (Acc.get ("phase." ^ l ^ ".self_ns")) wall, "ratio")) reported_phases
  @ [
      ("cache.hit", per "cache.hit", "count");
      ("cache.miss", per "cache.miss", "count");
      ("cache.flush", per "cache.flush", "count");
      ("cache.hit_ratio", ratio (Acc.get "cache.hit") cache, "ratio");
      ("storage.reads", per "storage.reads", "count");
      ("storage.writes", per "storage.writes", "count");
      ("storage.batched_share", ratio (Acc.get "storage.batched") ios, "ratio");
      ("storage.retries", per "storage.retries", "count");
      ("storage.trace_len", per "storage.trace_len", "count");
      ("oram.rebuilds", per "oram.rebuilds", "count");
      ("bucket.zb", float zb, "blocks");
      ("bucket.beta", float beta, "count");
      ("trace.overhead_ratio", overhead, "ratio");
    ]

(* Everything measured, under the kind-qualified names: only the layers
   this workload exercised appear. *)
let layer_detail ~jobs =
  let nj = float (max 1 jobs) in
  let suffix s k = String.length k > String.length s && String.ends_with ~suffix:s k in
  List.filter_map
    (fun k ->
      let v = Acc.get k in
      if v = 0. then None
      else if suffix "_ns" k || suffix ".ns" k then
        let base = String.sub k 0 (String.length k - 3) in
        let sep = if suffix ".ns" k then "." else "_" in
        Some (base ^ sep ^ "ms", v /. 1e6 /. nj)
      else Some (k, v /. nj))
    (Acc.keys ())
  @ List.filter_map
      (fun (name, ns, n, scale) ->
        let n = Acc.get n in
        if n > 0. then Some (name, Acc.get ns /. n /. scale) else None)
      [
        ("cipher.ns_per_block", "cipher.ns", "cipher.blocks", 1.);
        ("access.read_ms", "job.read.ns", "access.reads", 1e6);
        ("access.write_ms", "job.write.ns", "access.writes", 1e6);
      ]

(* ------------------------------------------------------------------ *)

let () =
  parse_args ();
  let wl =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "odexbench: unknown workload %S (sort | sort-bucket | compact-2server | oram)\n" !workload;
        exit 2
  in
  (try Sys.mkdir !out_dir 0o755 with Sys_error _ -> ());
  (try Sys.mkdir (Filename.concat !out_dir "tmp") 0o755 with Sys_error _ -> ());
  (* Dispatch guard: sort-bucket must run the bucket pipeline, never the
     windowed-bitonic fallback Ext_sort.bucket takes when the bucket
     geometry does not fit the cache. *)
  let plan =
    if wl.name <> "sort-bucket" then None
    else
      match Odex_sortnet.Bucket_sort.plan_for ~b:bucket_b ~m:bucket_m ~n_cells:bucket_n with
      | Some p -> Some p
      | None ->
          Printf.eprintf "odexbench: sort-bucket geometry (N = %d, B = %d, m = %d) falls back to bitonic\n" bucket_n
            bucket_b bucket_m;
          exit 1
  in
  let traced = !trace = 1 in
  let jobs = ref 0 and attempted = ref 0 and failed = ref 0 and mismatches = ref 0 in
  let setup_s = ref [] and job_ms = ref [] and rates = ref [] and samples = ref [] in
  let wall_job_ms = ref [] and wall_rates = ref [] and wall_samples = ref [] in
  let wall_total = ref 0L and cpu_total = ref 0L and refs = ref [] in
  (* Set-up is timed on its own too, many times before the jobs, so its
     median does not rest on the few jobs a slow workload fits. *)
  if not traced then begin
    let until = Int64.add (now ()) (Int64.of_float (setup_budget_s *. 1e9)) in
    let i = ref 0 in
    while !i < setup_reps_min || (!i < setup_reps_max && now () < until) do
      setup_s := Int64.to_float (wl.setup !i) /. 1e9 :: !setup_s;
      incr i
    done
  end;
  let deadline = Int64.add (now ()) (Int64.of_float (!seconds *. 1e9)) in
  (* Counted I/Os and bytes come from job 0, so a fixed seed gives the
     same figures however many jobs fit in the run. *)
  let ios = ref 0 and bytes = ref 0 in
  let overheads = ref [] in
  let first_sinks = ref [] in
  let retries = ref 0 in
  let count (c : call) =
    retries := !retries + c.retried;
    attempted := !attempted + c.attempted;
    failed := !failed + c.failed
  in
  let total f calls = List.fold_left (fun a c -> Int64.add a (f c)) 0L calls in
  while !jobs = 0 || now () < deadline do
    let index = !jobs in
    (* Start every job from a collected heap, so one job's garbage does
       not land in the next one's timing or push the peak RSS around. *)
    Gc.full_major ();
    if not traced then begin
      refs := ms (reference_cpu_ns ()) :: !refs;
      Gc.full_major ()
    end;
    let plain = wl.job ~tel:(fun () -> Tel.disabled) ~traced:false index in
    List.iter (fun c -> print_job ~index ~traced:false c; count c) plain;
    let wall = total (fun c -> c.wall_ns) plain in
    if traced then begin
      let sinks = wl.job ~tel:Tel.create ~traced:true index in
      List.iter (fun c -> print_job ~index ~traced:true c; count c) sinks;
      (* Telemetry only observes: the traced leg must leave the same
         trace, I/O count and bytes as the untraced one. *)
      List.iter2
        (fun (a : call) (b : call) ->
          if a.digest <> b.digest || a.ios <> b.ios || a.bytes <> b.bytes then begin
            Printf.eprintf "odexbench: job %d %s: traced run changed the trace\n%!" index a.kind;
            incr mismatches
          end)
        plain sinks;
      let twall = total (fun c -> c.wall_ns) sinks in
      overheads := Int64.to_float twall /. Int64.to_float (max 1L wall) :: !overheads;
      Acc.add "job.ns" (Int64.to_float twall);
      Acc.add "setup.create_ns" (Int64.to_float (total (fun c -> c.create_ns) sinks));
      Acc.add "setup.load_ns" (Int64.to_float (total (fun c -> c.load_ns) sinks));
      if !first_sinks = [] then first_sinks := List.map (fun c -> (c.kind, c.sink)) sinks
    end
    else begin
      let cpu = total (fun c -> c.cpu_ns) plain in
      setup_s := Int64.to_float (total (fun c -> c.setup_cpu_ns) plain) /. 1e9 :: !setup_s;
      job_ms := ms cpu :: !job_ms;
      rates := float wl.ops_per_job /. (Int64.to_float (max 1L cpu) /. 1e9) :: !rates;
      List.iter (fun c -> samples := Array.to_list c.cpu_samples @ !samples) plain;
      wall_job_ms := ms wall :: !wall_job_ms;
      wall_rates := float wl.ops_per_job /. (Int64.to_float wall /. 1e9) :: !wall_rates;
      List.iter (fun c -> wall_samples := Array.to_list c.samples @ !wall_samples) plain;
      wall_total := Int64.add !wall_total wall;
      cpu_total := Int64.add !cpu_total cpu;
      if index = 0 then List.iter (fun c -> ios := !ios + c.ios; bytes := !bytes + c.bytes) plain
    end;
    incr jobs
  done;
  let latencies = if wl.batch then !job_ms else !samples in
  let ref_median = median !refs in
  let scale = if ref_median > 0. then reference_ms /. ref_median else 1. in
  let wall_latencies = if wl.batch then !wall_job_ms else !wall_samples in
  let profile =
    [
      ("type", json_string "profile"); ("workload", json_string wl.name); ("why", json_string wl.why);
      ("seed", string_of_int !seed); ("seconds", json_num !seconds); ("trace", string_of_int !trace);
      ("shape", json_string wl.shape); ("stack", json_string wl.stack); ("flush_policy", json_string wl.flush);
      ("op", json_string wl.op_unit); ("ops_per_job", string_of_int wl.ops_per_job);
      ("jobs", string_of_int !jobs); ("latency_samples", string_of_int (List.length latencies));
      ("tail_percentile", json_num wl.tail_pct); ("op_cpu_ms_tail", json_num (percentile wl.tail_pct latencies));
      ("reference_ms_p50", json_num ref_median); ("scale", json_num scale);
      ("cpu_ops_per_s", json_num (median !rates)); ("cpu_op_ms_p50", json_num (median latencies));
      ("wall_ops_per_s", json_num (median !wall_rates)); ("wall_op_ms_p50", json_num (median wall_latencies));
      ("wall_op_ms_tail", json_num (percentile wl.tail_pct wall_latencies));
      ("cpu_per_wall", json_num (Int64.to_float !cpu_total /. Int64.to_float (max 1L !wall_total)));
      ("attempted", string_of_int !attempted); ("failed", string_of_int !failed);
      ("retries", string_of_int !retries); ("fail_ratio", json_num (float !failed /. float (max 1 !attempted)));
      ("nproc", string_of_int (Domain.recommended_domain_count ())); ("cpu", json_string (cpu_model ()));
      ("ocaml", json_string Sys.ocaml_version); ("rev", json_string !rev);
    ]
    @
    match plan with
    | Some p -> [ ("bucket_zb", string_of_int p.zb); ("bucket_beta", string_of_int p.beta) ]
    | None -> []
  in
  print_endline (json_obj profile);
  let metrics =
    if traced then begin
      let overhead = median !overheads in
      let path = Filename.concat !out_dir (Printf.sprintf "%s-seed%d.trace.json" wl.name !seed) in
      Tel.write_chrome ~path !first_sinks;
      print_endline
        (json_obj
           ([ ("type", json_string "layers"); ("chrome_trace", json_string path) ]
           @ List.map (fun (k, v) -> (k, json_num v)) (layer_detail ~jobs:!jobs)));
      per_layer ~jobs:!jobs ~overhead ~plan
    end
    else
      let op = float wl.ops_per_job in
      [
        ("setup_s", median !setup_s *. scale, "s");
        ("ops_per_scaled_cpu_s", median !rates /. scale, "1/s");
        ("op_scaled_cpu_ms_p50", median latencies *. scale, "ms");
        ("ios_per_op", float !ios /. op, "io/op");
        ("bytes_per_op", float !bytes /. op, "B/op");
        ("peak_rss_mb", peak_rss_mb (), "MB");
      ]
  in
  let correct = !failed = 0 && !mismatches = 0 && !accounting_ok in
  if not !accounting_ok then prerr_endline "odexbench: phase self times do not add up to job wall";
  print_endline
    (json_obj
       [
         ("correct", string_of_bool correct); ("attempted", string_of_int !attempted);
         ("failed", string_of_int (!failed + !mismatches));
         ( "metrics",
           json_obj
             (List.map (fun (k, v, u) -> (k, json_obj [ ("value", json_num v); ("unit", json_string u) ])) metrics) );
       ])
