(* One measured run: what the JSON renderer writes to BENCH_core.json.
   Every record is built by [measure], and its labels are read off the
   store that actually ran, never off the command line. *)

open Odex_extmem
module Telemetry = Odex_telemetry.Telemetry
module Pairtest = Odex_obcheck.Pairtest

(* What a finished run exposes: its store's labels and counters. *)
type counters = {
  backend : string;  (* outermost backend layer ("journaled" over a journal) *)
  shards : int;
  journal : bool;
  cipher : string;  (* "none", or the engine the store was sealed under *)
  reads : int;
  writes : int;
  retries : int;
  trace_length : int;
  spans : int;
  bytes_moved : int;
  batched_ios : int;
  telemetry : Telemetry.t;  (* live only when profiling (or E16's probe) *)
}

type t = {
  experiment : string;
  name : string;
  sorter : string;  (* "" unless the entry sweeps sorting engines (E15) *)
  servers : int;  (* non-colluding servers of a multi-server protocol; 1 otherwise *)
  n_cells : int;
  b : int;
  m : int;
  wall_ms : float;
  ok : bool;
  c : counters;
}

let total_ios r = r.c.reads + r.c.writes

let cipher_name = function None -> "none" | Some e -> Odex_crypto.Cipher.engine_name e

let of_store s =
  let st = Storage.stats s and tr = Storage.trace s in
  {
    backend = Storage.backend_kind s;
    shards = Option.value (Storage.shard_count s) ~default:1;
    journal = Storage.journaled s;
    cipher = cipher_name (if Storage.sealed s then Some (Storage.cipher_engine s) else None);
    reads = Stats.reads st;
    writes = Stats.writes st;
    retries = Stats.retries st;
    trace_length = Trace.length tr;
    spans = List.length (Trace.spans tr);
    bytes_moved = Stats.bytes_moved st;
    batched_ios = Stats.batched_ios st;
    telemetry = Storage.telemetry s;
  }

let store s ok = (of_store s, ok)

(* A pair test's run A, on stores created with [cipher] (if any) and
   instrumented by [telemetry]. The journal is the outermost layer of a
   journaled spec, so the kind names it. *)
let of_pair ~telemetry ~cipher (o : Pairtest.outcome) =
  let a = o.run_a in
  {
    backend = o.backend;
    shards = Option.value a.shards ~default:1;
    journal = o.backend = "journaled";
    cipher = cipher_name cipher;
    reads = a.reads;
    writes = a.writes;
    retries = a.retries;
    trace_length = a.trace_length;
    spans = a.span_count;
    bytes_moved = a.bytes_moved;
    batched_ios = a.batched_ios;
    telemetry;
  }

(* Time [f], then [read] its result into the store's counters and the
   run's success flag. Returns the record and [f]'s result. *)
let measure ?(sorter = "") ?(servers = 1) ~experiment ~name ~n_cells ~b ~m ~read f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  let c, ok = read x in
  ({ experiment; name; sorter; servers; n_cells; b; m; wall_ms; ok; c }, x)

(* ---- JSON ---- *)

(* MB (10^6 bytes) per second of [ns]; 0 when nothing was measured. *)
let mb_per_s ~bytes ~ns =
  if bytes = 0 || ns <= 0. then 0. else Float.of_int bytes /. 1e6 /. (ns /. 1e9)

(* Keystream throughput from the cipher pseudo-backend's op rows:
   plaintext bytes over in-cipher nanoseconds, seal and unseal pooled.
   0 unless the run's sink was live and the store sealed. *)
let seal_mb_per_s tel =
  let bytes, ns =
    List.fold_left
      (fun (bts, ns) (st : Telemetry.op_stat) ->
        match st.op with
        | (Telemetry.Seal | Telemetry.Unseal) when st.op_backend = "cipher" ->
            (bts + st.op_bytes, Int64.add ns (Telemetry.hist_total_ns st.latency))
        | _ -> (bts, ns))
      (0, 0L) (Telemetry.op_stats tel)
  in
  mb_per_s ~bytes ~ns:(Int64.to_float ns)

let json_of_phase (ps : Telemetry.phase_stat) =
  let h = ps.phase_latency in
  Printf.sprintf
    "{\"label\":%S,\"count\":%d,\"total_ms\":%.3f,\"p50_us\":%.2f,\"p90_us\":%.2f,\"p99_us\":%.2f}"
    ps.phase_label ps.phase_count
    (Int64.to_float (Telemetry.hist_total_ns h) /. 1e6)
    (Telemetry.hist_percentile h 50. /. 1e3)
    (Telemetry.hist_percentile h 90. /. 1e3)
    (Telemetry.hist_percentile h 99. /. 1e3)

let to_json r =
  let c = r.c in
  Printf.sprintf
    "{\"experiment\":%S,\"name\":%S,\"sorter\":%S,\"backend\":%S,\"shards\":%d,\"servers\":%d,\"journal\":%b,\"cipher\":%S,\"n_cells\":%d,\"b\":%d,\"m\":%d,\"reads\":%d,\"writes\":%d,\"total_ios\":%d,\"retries\":%d,\"trace_length\":%d,\"spans\":%d,\"wall_ms\":%.3f,\"bytes_moved\":%d,\"batched_ios\":%d,\"mb_per_s\":%.3f,\"seal_mb_per_s\":%.3f,\"ok\":%b,\"phases\":[%s]}"
    r.experiment r.name r.sorter c.backend c.shards r.servers c.journal c.cipher r.n_cells r.b
    r.m c.reads c.writes (total_ios r) c.retries c.trace_length c.spans r.wall_ms c.bytes_moved
    c.batched_ios
    (mb_per_s ~bytes:c.bytes_moved ~ns:(r.wall_ms *. 1e6))
    (seal_mb_per_s c.telemetry) r.ok
    (String.concat "," (List.map json_of_phase (Telemetry.phase_stats c.telemetry)))

let write_json ~path records =
  let oc = open_out path in
  output_string oc "{\n  \"schema\": \"odex-bench/11\",\n  \"records\": [\n";
  List.iteri
    (fun i r ->
      output_string oc "    ";
      output_string oc (to_json r);
      if i < List.length records - 1 then output_string oc ",";
      output_string oc "\n")
    records;
  output_string oc "  ]\n}\n";
  close_out oc
