(* The experiment harness: parses the command line once into a
   [Workloads.config], runs the selected experiments, and renders their
   reports as text tables or as BENCH_core.json. [usage] is the manual. *)

open Bechamel
open Toolkit
module Ext_sort = Odex_sortnet.Ext_sort
module Registry = Odex_obcheck.Registry

let sorter_names = List.map Ext_sort.name Ext_sort.all

let ciphers =
  Odex_crypto.Cipher.[ ("none", None); ("prf_xor", Some Prf_xor); ("chacha20", Some Chacha20) ]

let usage =
  Printf.sprintf
    "Usage: main.exe [--json] [OPTION ...] [ID ...]\n\
     \n\
     Runs the experiments of DESIGN.md's index and prints their tables, or\n\
     with --json writes their records to BENCH_core.json (overwritten). IDs\n\
     are E1 ... E18 and `time` (Bechamel wall-clock micro-benches); no ID\n\
     runs all of them. Every option means the same in both output modes.\n\
     \n\
     Options:\n\
    \  --json             write records to BENCH_core.json instead of tables\n\
    \  --backend NAME     store every workload on %s\n\
    \  --shards K         stripe every workload store across K devices (K >= 1)\n\
    \  --servers K        width of E18's multi-server stripe (K >= 2, default 2)\n\
    \  --journal          run every experiment twice: journal off, then on\n\
    \  --cipher NAME      seal every workload store: %s\n\
    \  --seal-domains K   fan run sealing across K domains (K >= 1)\n\
    \  --sorter NAME      narrow E15 to one sorting engine (batcher = bitonic):\n\
    \                     %s\n\
    \  --profile PATH     collect telemetry: per-phase latency percentiles in the\n\
    \                     records, and a Chrome trace-event file at PATH\n\
    \  --help             print this text\n\
     \n\
     Exit status: 0 on success; 1 when a checked claim fails (E1 sees a Lemma 5\n\
     collision, an E2 row's I/Os differ from 2*ceil(N/B), or E18's multi-server\n\
     I/Os are not below the single-server I/Os); 2 on a usage error.\n"
    (String.concat " | " Registry.backend_names)
    (String.concat " | " (List.map fst ciphers))
    (String.concat " | " sorter_names)

(* ---- wall-clock micro-benches (`time`) ---- *)

let wallclock_tests cfg =
  let b = 8 in
  let n = 8192 in
  let uniform f =
    let rng = Odex_crypto.Rng.create ~seed:42 in
    Workloads.with_array cfg ~rng ~b ~n Workloads.Uniform (fun _ a -> f a)
  in
  let blocks ~occupied f = Workloads.with_blocks cfg ~b ~n:2048 ~occupied (fun _ a -> f a) in
  [
    Test.make ~name:"sort-thm21-8k" (Staged.stage (fun () ->
        uniform (fun a ->
            let rng = Odex_crypto.Rng.create ~seed:1 in
            ignore (Odex.Sort.run ~sweep:false ~m:64 ~rng a))));
    Test.make ~name:"sort-bitonic-win-8k" (Staged.stage (fun () ->
        uniform (Ext_sort.run Ext_sort.bitonic_windowed ~m:64)));
    Test.make ~name:"selection-8k" (Staged.stage (fun () ->
        uniform (fun a ->
            let rng = Odex_crypto.Rng.create ~seed:2 in
            ignore (Odex.Selection.select ~m:64 ~rng ~k:(n / 2) a))));
    Test.make ~name:"quantiles-q4-8k" (Staged.stage (fun () ->
        uniform (fun a ->
            let rng = Odex_crypto.Rng.create ~seed:3 in
            ignore (Odex.Quantiles.run ~m:64 ~rng ~q:4 a))));
    Test.make ~name:"butterfly-compact-2k" (Staged.stage (fun () ->
        blocks ~occupied:700 (fun a -> ignore (Odex.Butterfly.compact ~m:64 a))));
    Test.make ~name:"loose-compact-2k" (Staged.stage (fun () ->
        blocks ~occupied:256 (fun a ->
            let rng = Odex_crypto.Rng.create ~seed:4 in
            ignore (Odex.Loose_compaction.run ~m:64 ~rng ~capacity:512 a))));
    Test.make ~name:"consolidation-8k" (Staged.stage (fun () ->
        uniform (fun a -> ignore (Odex.Consolidation.run ~into:None a))));
    Test.make ~name:"iblt-insert-1k" (Staged.stage (fun () ->
        let t = Odex_iblt.Iblt.create ~size:8192 (Odex_crypto.Prf.key_of_int 5) in
        for x = 0 to 999 do
          Odex_iblt.Iblt.insert t ~key:x ~value:x
        done));
    Test.make ~name:"sort-columnsort-8k" (Staged.stage (fun () ->
        uniform (Ext_sort.run Ext_sort.columnsort ~m:128)));
    (* m = 128 >= the default-Z bucket geometry's 114-block floor at
       B = 8, so this times the butterfly pipeline, not the fallback. *)
    Test.make ~name:"sort-bucket-8k" (Staged.stage (fun () ->
        uniform (Ext_sort.run (Ext_sort.bucket ()) ~m:128)));
    Test.make ~name:"hier-oram-access-1k" (Staged.stage (fun () ->
        Workloads.with_store cfg ~b:4 (fun s ->
            let rng = Odex_crypto.Rng.create ~seed:7 in
            let t =
              Odex_oram.Hierarchical_oram.init ~m:64 ~rng s ~values:(Array.make 1024 0)
            in
            for i = 1 to 64 do
              ignore (Odex_oram.Hierarchical_oram.read t (i mod 1024))
            done)));
    Test.make ~name:"sqrt-oram-epoch-1k" (Staged.stage (fun () ->
        Workloads.with_store cfg ~b:4 (fun s ->
            let rng = Odex_crypto.Rng.create ~seed:6 in
            let t = Odex_oram.Sqrt_oram.init ~m:64 ~rng s ~values:(Array.make 1024 0) in
            while Odex_oram.Sqrt_oram.epochs t < 1 do
              ignore (Odex_oram.Sqrt_oram.read t 0)
            done)));
  ]

let wallclock cfg =
  let instances = Instance.[ monotonic_clock ] in
  let bcfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) () in
  let tests = Test.make_grouped ~name:"odex" ~fmt:"%s %s" (wallclock_tests cfg) in
  let raw = Benchmark.all bcfg instances tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name result acc ->
        match Analyze.OLS.estimates result with
        | Some [ ns ] ->
            let per_run =
              if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
              else Printf.sprintf "%.2f us" (ns /. 1e3)
            in
            [ name; per_run ] :: acc
        | _ -> acc)
      results []
  in
  Experiments.report
    [
      Table.make ~title:"Wall-clock micro-benches (Bechamel, monotonic clock)"
        ~header:[ "bench"; "time per run" ] (List.sort compare rows);
    ]

let entries = Experiments.all @ [ ("time", wallclock) ]

(* ---- the command line ---- *)

type mode = Text | Json

(* One pass over the arguments; [Error] carries the first complaint. *)
let parse args =
  let open Workloads in
  let ( let* ) = Result.bind in
  let count flag ~min v =
    match int_of_string_opt v with
    | Some k when k >= min -> Ok k
    | _ -> Error (Printf.sprintf "%s needs an integer >= %d, got %S" flag min v)
  in
  let one_of what names v =
    if List.mem v names then Ok v
    else Error (Printf.sprintf "unknown %s %S (available: %s)" what v (String.concat " " names))
  in
  (* The options that take a value, each with its validating setter. *)
  let setters =
    [
      ( "--backend",
        fun cfg v ->
          let* v = one_of "backend" Registry.backend_names v in
          Ok { cfg with backend = v } );
      ( "--shards",
        fun cfg v ->
          let* k = count "--shards" ~min:1 v in
          Ok { cfg with shards = k } );
      ( "--servers",
        fun cfg v ->
          let* k = count "--servers" ~min:2 v in
          Ok { cfg with servers = k } );
      ( "--seal-domains",
        fun cfg v ->
          let* k = count "--seal-domains" ~min:1 v in
          Ok { cfg with seal_domains = k } );
      ( "--cipher",
        fun cfg v ->
          let* v = one_of "cipher" (List.map fst ciphers) v in
          Ok { cfg with cipher = List.assoc v ciphers } );
      ( "--sorter",
        fun cfg v ->
          let* v = if Ext_sort.find v = None then one_of "sorter" sorter_names v else Ok v in
          Ok { cfg with sorter = Some v } );
      ("--profile", fun cfg v -> Ok { cfg with profile = Some v });
    ]
  in
  let rec go cfg mode ids = function
    | [] -> Ok (cfg, mode, List.rev ids)
    | "--json" :: rest -> go cfg Json ids rest
    | "--journal" :: rest -> go { cfg with journal = true } mode ids rest
    | flag :: rest when List.mem_assoc flag setters -> (
        match rest with
        | [] -> Error (Printf.sprintf "%s needs a value" flag)
        | v :: rest ->
            let* cfg = List.assoc flag setters cfg v in
            go cfg mode ids rest)
    | id :: rest when List.mem_assoc id entries -> go cfg mode (id :: ids) rest
    | arg :: _ when String.starts_with ~prefix:"-" arg ->
        Error (Printf.sprintf "unknown option %S" arg)
    | arg :: _ -> Error (Printf.sprintf "unknown experiment %S" arg)
  in
  go default Text [] args

(* ---- running and rendering ---- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if List.mem "--help" args then begin
    print_string usage;
    exit 0
  end;
  let cfg, mode, ids =
    match parse args with
    | Ok parsed -> parsed
    | Error msg ->
        Printf.eprintf "main.exe: %s\n\n%s" msg usage;
        exit 2
  in
  let selected = List.filter (fun (id, _) -> ids = [] || List.mem id ids) entries in
  (* With --journal every experiment runs journal-off first, so the
     bare-store records keep their place, then journal-on. *)
  let passes =
    if cfg.journal then [ { cfg with journal = false }; cfg ] else [ cfg ]
  in
  let reports =
    List.concat_map
      (fun cfg ->
        List.map
          (fun (_, run) ->
            let r : Experiments.report = run cfg in
            if mode = Text then List.iter Table.print r.tables;
            List.iter (Printf.eprintf "FAILED %s\n%!") r.failures;
            r)
          selected)
      passes
  in
  let records = List.concat_map (fun (r : Experiments.report) -> r.records) reports in
  if mode = Json then begin
    Record.write_json ~path:"BENCH_core.json" records;
    Printf.printf "wrote BENCH_core.json (%d records)\n" (List.length records)
  end;
  Option.iter
    (fun path ->
      let sinks =
        List.filter_map
          (fun (r : Record.t) ->
            if Odex_telemetry.Telemetry.enabled r.c.telemetry then
              Some (Printf.sprintf "%s/%s" r.experiment r.name, r.c.telemetry)
            else None)
          records
      in
      Odex_telemetry.Telemetry.write_chrome ~path sinks;
      Printf.printf "wrote %s (%d profiled runs, Chrome trace-event JSON)\n" path
        (List.length sinks))
    cfg.profile;
  if List.exists (fun (r : Experiments.report) -> r.failures <> []) reports then exit 1
