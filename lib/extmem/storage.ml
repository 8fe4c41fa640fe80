module Bigbuf = Odex_crypto.Bigbuf
module Cipher = Odex_crypto.Cipher

type backend_spec =
  | Mem
  | File of { path : string }
  | Faulty of { inner : backend_spec; seed : int; failure_rate : float; max_burst : int }
  | Sharded of { inner : backend_spec; shards : int; seed : int }
  | Journaled of { inner : backend_spec; path : string; durable : bool }
  | Crashing of { inner : backend_spec; ops : int }

exception Io_failure of { addr : int; attempts : int }

let () =
  Printexc.register_printer (function
    | Io_failure { addr; attempts } ->
        Some
          (Printf.sprintf "Storage.Io_failure(addr=%d after %d attempts)" addr attempts)
    | _ -> None)

module Telemetry = Odex_telemetry.Telemetry

type cipher_state = { st : Cipher.state; mutable next_nonce : int }

(* What the composer built, with the handles it keeps: the stripe map
   (which the per-server traces route through too) with its op counts,
   and the counter of every [Faulty] layer, stripe members included. *)
type stack = {
  top : Backend.t;
  journal : Journal.t option;
  striped : (Backend.Stripe.t * (unit -> int array)) option;
  fault_counts : (unit -> int) list;
}

(* ---- per-server traces.

   Under a [Sharded] spec each shard is a separate adversary: a
   non-colluding server sees only the inner-address op sequence routed to
   its own device, never the logical interleaving. The stripe's map
   (the one {!Backend.Stripe.t} the stripe backend routes through) routes
   every counted op (and counted retry) a second time into the trace of the
   shard that served it, at its inner address. Recording happens on the
   coordinator thread only (the stripe's worker domains move payloads,
   never accounting), uncounted ops are excluded exactly as they are from
   the logical trace, and the logical trace itself is untouched — every
   pinned digest survives. *)

type shard_state = {
  stripe : Backend.Stripe.t;
  ops : unit -> int array;  (** The stripe's per-shard op counts. *)
  straces : Trace.t array;
}

type t = {
  block_size : int;
  payload_size : int;
  backend : Backend.t;
  kind : string;  (** The device kind underneath any instrumentation shim. *)
  engine : Cipher.engine;
  mutable used : int;
  stats : Stats.t;
  trace : Trace.t;
  tel : Telemetry.t;
  cipher : cipher_state option;
  mutable nonce_reserved : int;
      (** Nonces below this are persisted as potentially spent (the store
          header's high-water mark); a crash can never roll the counter
          back below a nonce that hit the device. *)
  journal : Journal.t option;
      (** The write-ahead journal handle, when the spec has a [Journaled]
          layer — owns the crash-atomicity and checkpoint machinery. *)
  shard : shard_state option;
  fault_counts : (unit -> int) list;  (** One per [Faulty] layer of the stack. *)
  seal_domains : int;
  pool : Workers.t;
      (** The store's worker domains, shared by run sealing and the
          stripe: [max seal_domains shards - 1] of them. *)
  seal_buf : Bigbuf.t;  (** One payload: the single-block sealing scratch. *)
  mutable run_buf : Bigbuf.t;  (** Grows to the largest run requested; reused across calls. *)
}

(* ---- the composer: the one place a [backend_spec] becomes a stack.

   [layers] is the only walk over a spec. It flattens the chain
   outermost first and checks every stacking rule on the way, so a spec
   that cannot be built is rejected before any device or journal file
   opens. Opening and file removal then iterate that list. *)

let rec layers ?(in_stripe = false) ?(in_journal = false) spec =
  match spec with
  | Mem | File _ -> [ spec ]
  | Faulty { inner; _ } -> spec :: layers ~in_stripe ~in_journal inner
  | Crashing { inner; _ } ->
      if in_stripe then invalid_arg "Storage: Crashing inside Sharded is not supported";
      spec :: layers ~in_stripe ~in_journal inner
  | Sharded { inner; shards; _ } ->
      (* The striping math assumes one flat address refinement. *)
      if in_stripe then invalid_arg "Storage: nested Sharded specs are not supported";
      if shards < 1 then invalid_arg "Storage: shards must be >= 1";
      spec :: layers ~in_stripe:true ~in_journal inner
  | Journaled { inner; _ } ->
      (* One journal (and one checkpoint table) per store, outside the
         stripe, where it sees logical addresses. *)
      if in_stripe then
        invalid_arg "Storage: Journaled inside Sharded is not supported (journal the stripe)";
      if in_journal then invalid_arg "Storage: nested Journaled specs are not supported";
      spec :: layers ~in_stripe ~in_journal:true inner

let stripe_shards ls = List.find_map (function Sharded { shards; _ } -> Some shards | _ -> None) ls

let member_path i path = Printf.sprintf "%s.shard%d" path i

(* Release a built stack without writing anything: a journal closes its
   own file and its inner stack. *)
let release backend journal =
  match journal with Some j -> Journal.abandon j | None -> Backend.close backend

(* Open the checked layers [ls] innermost first, one store per shard
   below a stripe and one above it ([resume] decides whether a journal
   replays its redo log or starts fresh). Each shard is its own device
   with its own deterministic weather: file paths get a per-shard suffix
   and fault seeds are mixed with the shard index. A layer that fails to
   open closes every store opened beneath it before re-raising. *)
let compose ~pool ~payload_size ~engine ~resume ~auto_commit_bytes ls =
  let striped = ref None and journal = ref None and fault_counts = ref [] in
  let k = stripe_shards ls in
  let below_stripe () = k <> None && !striped = None in
  let over level = function
    | (Mem | File _) as l ->
        let device i =
          match l with
          | File { path } ->
              let path = if below_stripe () then member_path i path else path in
              Backend.file ~path ~payload_size
          | _ -> Backend.mem ~payload_size ()
        in
        let opened = ref [] in
        (try
           for i = 0 to Option.value k ~default:1 - 1 do
             opened := device i :: !opened
           done
         with e ->
           List.iter Backend.close !opened;
           raise e);
        Array.of_list (List.rev !opened)
    | Faulty { seed; failure_rate; max_burst; _ } ->
        Array.mapi
          (fun i b ->
            let seed = if below_stripe () then seed + ((i + 1) * 0x9E37) else seed in
            let b, count = Backend.faulty { Backend.seed; failure_rate; max_burst } b in
            fault_counts := count :: !fault_counts;
            b)
          level
    | Crashing { ops; _ } -> Array.map (Backend.crash_after ~ops) level
    | Sharded { shards; seed; _ } ->
        let map = Backend.Stripe.create ~shards ~seed in
        let b, ops = Backend.sharded ~stripe:map ~pool level in
        striped := Some (map, ops);
        [| b |]
    | Journaled { path; durable; _ } ->
        let j =
          Journal.create ?auto_commit_bytes ~engine ~path ~payload_size ~durable ~replay:resume
            level.(0)
        in
        journal := Some j;
        [| Journal.backend j |]
  in
  let top =
    List.fold_left
      (fun level l ->
        match over level l with
        | above -> above
        | exception e ->
            Array.iter Backend.close level;
            raise e)
      [||] (List.rev ls)
  in
  { top = top.(0); journal = !journal; striped = !striped; fault_counts = !fault_counts }

let remove_spec_files spec =
  let ls = layers spec in
  let remove path = if Sys.file_exists path then Sys.remove path in
  List.iter
    (function
      | File { path } -> (
          match stripe_shards ls with
          | None -> remove path
          | Some k ->
              for i = 0 to k - 1 do
                remove (member_path i path)
              done)
      | Journaled { path; _ } -> remove path
      | _ -> ())
    ls

(* ---- store header: the sealing state that must survive the process.

   A reopened File store MUST NOT restart the nonce counter: Bob may
   have retained every ciphertext ever written, and re-sealing under an
   already-used nonce is a two-time pad against them. The header
   (persisted through {!Backend.write_meta}, which the file backend
   keeps in its fixed 64-byte file header) records a conservative
   high-water mark: before a nonce at or above the persisted mark is
   used, the mark is pushed [nonce_chunk] ahead and written out — so at
   most one out-of-band metadata write per 2^16 seals, and after a crash
   the store resumes from the persisted mark, skipping at most
   [nonce_chunk] never-used nonces (nonces are a resource of size 2^62;
   burning a few is free, reusing one is fatal). [sync]/[close] persist
   the exact counter, so a cleanly closed store resumes with no gap.

   Version 2 appends the cipher engine id: unsealing ChaCha20 ciphertext
   with the PRF keystream (or vice versa) garbles every block silently,
   so reopening under a different engine than the store was sealed with
   must fail loudly instead. Version 1 headers (24 bytes, pre-engines)
   parse as [Prf_xor] — exactly what sealed them. *)

let header_version = 2L
let nonce_chunk = 1 lsl 16

let build_header t =
  let m = Bytes.create 32 in
  Bytes.set_int64_le m 0 header_version;
  Bytes.set_int64_le m 8 (Int64.of_int t.block_size);
  Bytes.set_int64_le m 16 (Int64.of_int t.nonce_reserved);
  Bytes.set_int64_le m 24 (Cipher.engine_id t.engine);
  m

let write_header t = Backend.write_meta t.backend (build_header t)

let engine_id_name id =
  match Cipher.engine_of_id id with
  | Some e -> Cipher.engine_name e
  | None -> Printf.sprintf "unknown (id %Ld)" id

(* Returns (nonce high-water, sealed-under engine id). *)
let parse_header ~block_size m =
  if Bytes.length m < 24 then invalid_arg "Storage: corrupt store header";
  let v = Bytes.get_int64_le m 0 in
  if v <> 1L && v <> header_version then
    invalid_arg (Printf.sprintf "Storage: unsupported store header version %Ld" v);
  let bs = Int64.to_int (Bytes.get_int64_le m 8) in
  if bs <> block_size then
    invalid_arg
      (Printf.sprintf "Storage: store was created with block_size %d, reopened with %d" bs
         block_size);
  let hw = Int64.to_int (Bytes.get_int64_le m 16) in
  if hw < 0 then invalid_arg "Storage: corrupt store header (nonce high-water)";
  if v = 1L then (hw, Cipher.engine_id Cipher.Prf_xor)
  else begin
    if Bytes.length m < 32 then invalid_arg "Storage: corrupt store header";
    (hw, Bytes.get_int64_le m 24)
  end

let create ?cipher ?(cipher_engine = Cipher.Prf_xor) ?telemetry ?(trace_mode = Trace.Digest)
    ?(backend = Mem) ?(seal_domains = 1) ?(resume = false) ?journal_auto_commit_bytes
    ~block_size () =
  if block_size < 1 then invalid_arg "Storage.create: block_size must be >= 1";
  if seal_domains < 1 then invalid_arg "Storage.create: seal_domains must be >= 1";
  let payload_size = 8 + Block.encoded_size block_size in
  let ls = layers backend in
  (* One pool serves both run sealing (seal_domains - 1 workers) and the
     stripe (shards - 1 workers); the two never run at once. *)
  let shards = Option.value (stripe_shards ls) ~default:1 in
  let pool = Workers.create (max seal_domains shards - 1) in
  let stack =
    match
      compose ~pool ~payload_size ~engine:cipher_engine ~resume
        ~auto_commit_bytes:journal_auto_commit_bytes ls
    with
    | stack -> stack
    | exception e ->
        Workers.close pool;
        raise e
  in
  let raw = stack.top and journal = stack.journal in
  let kind = Backend.kind raw in
  let tel = Option.value telemetry ~default:Telemetry.disabled in
  (* The timing shim is installed only when the sink collects: a
     disabled sink leaves the backend — and thus the whole I/O path —
     untouched. *)
  let backend = if Telemetry.enabled tel then Backend.instrument tel raw else raw in
  let stored_nonce_hw () =
    match Backend.read_meta backend with
    | None -> 0
    | Some m ->
        let hw, engine_id = parse_header ~block_size m in
        if engine_id <> Cipher.engine_id cipher_engine then
          invalid_arg
            (Printf.sprintf
               "Storage: store is sealed under cipher engine %s, reopened with %s"
               (engine_id_name engine_id)
               (Cipher.engine_name cipher_engine));
        hw
  in
  let nonce_hw =
    match stored_nonce_hw () with
    | hw -> hw
    | exception e ->
        (* A rejected reopen must not leak the descriptors it opened. *)
        release raw journal;
        Workers.close pool;
        raise e
  in
  let t =
    {
      block_size;
      payload_size;
      backend;
      kind;
      engine = cipher_engine;
      used = (if resume then Backend.size backend else 0);
      stats = Stats.create ();
      trace = Trace.create ~telemetry:tel trace_mode;
      tel;
      cipher =
        Option.map (fun key -> { st = Cipher.init cipher_engine key; next_nonce = nonce_hw })
          cipher;
      nonce_reserved = nonce_hw;
      journal;
      shard =
        (* Shard traces carry no telemetry sink of their own: phases are
           already timed once, through the logical trace's spans. *)
        Option.map
          (fun (stripe, ops) ->
            {
              stripe;
              ops;
              straces =
                Array.init (Backend.Stripe.shards stripe) (fun _ -> Trace.create trace_mode);
            })
          stack.striped;
      fault_counts = stack.fault_counts;
      seal_domains;
      pool;
      seal_buf = Bigbuf.create payload_size;
      run_buf = Bigbuf.create 0;
    }
  in
  write_header t;
  t

let block_size t = t.block_size
let capacity t = t.used
let stats t = t.stats
let trace t = t.trace
let telemetry t = t.tel
let backend_kind t = t.kind
let cipher_engine t = t.engine
let sealed t = Option.is_some t.cipher
let seal_domains t = t.seal_domains
let faults_injected t = List.fold_left (fun acc count -> acc + count ()) 0 t.fault_counts
let scratch_bytes t = Bigbuf.length t.run_buf
let shard_ios t = match t.shard with None -> [||] | Some sh -> sh.ops ()
let shard_count t = Option.map (fun sh -> Backend.Stripe.shards sh.stripe) t.shard
let shard_traces t = match t.shard with None -> [||] | Some sh -> sh.straces

let shard_of t a = Option.map (fun sh -> Backend.Stripe.shard sh.stripe a) t.shard

let shard_addr t ~shard ~index =
  match t.shard with
  | None -> invalid_arg "Storage.shard_addr: backend is not sharded"
  | Some sh ->
      if shard < 0 || shard >= Backend.Stripe.shards sh.stripe then
        invalid_arg "Storage.shard_addr: shard out of range";
      if index < 0 then invalid_arg "Storage.shard_addr: negative index";
      Backend.Stripe.logical sh.stripe ~shard ~inner:index

(* Record a counted op into the serving shard's trace, at the inner
   address that shard's device actually sees. *)
let shard_record t a op_of =
  match t.shard with
  | None -> ()
  | Some sh ->
      Trace.record
        sh.straces.(Backend.Stripe.shard sh.stripe a)
        (op_of (Backend.Stripe.inner sh.stripe a))

(* Bracket a public phase across the logical trace {e and} every
   per-shard trace, so shard-level divergence reports name the same
   phases the logical reports do. [Trace.with_span] on the logical trace
   keeps the telemetry mirroring. *)
let with_span t label f =
  match t.shard with
  | None -> Trace.with_span t.trace label f
  | Some sh ->
      Array.iter (fun tr -> Trace.span_enter tr label) sh.straces;
      Fun.protect
        ~finally:(fun () -> Array.iter Trace.span_exit sh.straces)
        (fun () -> Trace.with_span t.trace label f)

(* Run [f lo hi] over a partition of [0, n) — one contiguous chunk per
   domain of the store's pool when the run is big enough to split,
   inline otherwise. All chunks complete (or raise) before this returns;
   the first exception in chunk order wins. The partition is a function
   of [n] and [seal_domains] alone, never of data. *)
let parallel_chunks t n f =
  let d = t.seal_domains in
  if d <= 1 || n < 2 * d then f 0 n
  else begin
    let per = (n + d - 1) / d in
    Workers.run t.pool
      (Array.init d (fun i ->
           let lo = i * per and hi = min n ((i + 1) * per) in
           fun () -> if lo < hi then f lo hi))
    |> Array.iter (function Some e -> raise e | None -> ())
  end

(* Persist the exact counter (not the rounded-up reservation) before the
   device flushes or the descriptor goes away: a cleanly closed store
   reopens with a gap-free nonce stream. *)
let checkpoint_header t =
  (match t.cipher with Some cs -> t.nonce_reserved <- cs.next_nonce | None -> ());
  write_header t

let sync t =
  checkpoint_header t;
  Backend.sync t.backend

(* The pool closes last: a journal outside a stripe commits its pending
   tail on [Backend.close], and that commit dispatches through the
   stripe onto the pool. *)
let close t =
  Fun.protect
    ~finally:(fun () -> Workers.close t.pool)
    (fun () ->
      checkpoint_header t;
      Backend.close t.backend)

(* Simulate a kill: release every descriptor with no header checkpoint,
   no journal commit, no flush — the on-disk state stays exactly as the
   crash point left it. Crash-sweep harness only. *)
let abandon t =
  Workers.close t.pool;
  release t.backend t.journal

(* ---- journal-backed checkpoints (no-ops on unjournaled stores).

   The slot write commits the journal first, so a checkpoint is also a
   group-commit boundary; the nonce counter is checkpointed exactly (as
   on [sync]/[close]) so a resume after the crash wastes no reservation.
   All of it is out-of-band server state: uncounted, untraced — traces
   are bit-identical with journaling on and off (pair-tested). *)

let journaled t = Option.is_some t.journal

let checkpoint t ~owner ~phase ~cursor =
  match t.journal with
  | None -> ()
  | Some j ->
      checkpoint_header t;
      Journal.checkpoint j ~owner ~phase ~cursor

let checkpoint_clear t ~owner =
  match t.journal with
  | None -> ()
  | Some j ->
      checkpoint_header t;
      Journal.clear j ~owner

let checkpoint_state t ~owner =
  match t.journal with None -> (0, 0) | Some j -> Journal.state j ~owner

let checkpoint_slots t = match t.journal with None -> [] | Some j -> Journal.slots j

(* Bracket a logical group that spans several backend runs (a strided
   cache flush, a split batch) so the journal cannot auto-commit in the
   middle of it: everything inside either commits whole at the next
   commit boundary or rolls back whole on a crash. No-op without a
   journal. Release never commits, so unwinding through a simulated
   crash is safe; a deferred auto-commit fires on the next unheld
   write. *)
let atomically t f =
  match t.journal with
  | None -> f ()
  | Some j ->
      Journal.hold j;
      Fun.protect ~finally:(fun () -> Journal.release j) f

let journal_replay t = match t.journal with None -> [] | Some j -> Journal.replay_log j
let journal_appends t = match t.journal with None -> [] | Some j -> Journal.append_log j
let journal_commits t = match t.journal with None -> 0 | Some j -> Journal.commits j

let ensure_run_buf t n =
  let need = n * t.payload_size in
  if Bigbuf.length t.run_buf < need then
    t.run_buf <- Bigbuf.create (max need (2 * Bigbuf.length t.run_buf))

(* ---- sealed payload: an 8-byte nonce header (-1 = plaintext) followed
   by the encoded (and possibly encrypted) block image. A fixed layout
   keeps every backend address-computable and lets a file store reopen a
   previous run's blocks given the same key.

   Sealing and unsealing run entirely inside caller-owned off-heap
   scratch buffers ([seal_buf] for single blocks, [run_buf] for runs):
   the block image is encoded in place, the cipher XORs the keystream in
   place — through the engine's C core for ChaCha20 — and decoding reads
   straight from the scratch at an offset. No staging copy, no
   per-operation allocation, and the same buffer the backend transfers
   from/to. ---- *)

let plain_nonce = -1L

(* Cipher work is reported to the sink under the pseudo-backend
   "cipher", so a profile attributes keystream time separately from
   device time. Only sealed payloads are timed (plaintext encode/decode
   is codec work, not cipher work), and only when the sink collects. *)
let with_seal_tel t ~op ~blocks f =
  if Telemetry.enabled t.tel && t.cipher <> None then begin
    let t0 = Telemetry.now_ns () in
    let r = f () in
    Telemetry.record_op t.tel ~backend:"cipher" ~op ~blocks
      ~bytes:(blocks * (t.payload_size - 8))
      ~ns:(Int64.sub (Telemetry.now_ns ()) t0);
    r
  end
  else f ()

let seal_into t blk buf off =
  match t.cipher with
  | None ->
      Bigbuf.set64_le buf off plain_nonce;
      Block.encode_into_big blk buf (off + 8)
  | Some cs ->
      let nonce = cs.next_nonce in
      (* Reserve (and persist) ahead of use: the header write lands on
         the device before any payload sealed under [nonce] can. *)
      if nonce >= t.nonce_reserved then begin
        t.nonce_reserved <- nonce + nonce_chunk;
        write_header t
      end;
      cs.next_nonce <- nonce + 1;
      Bigbuf.set64_le buf off (Int64.of_int nonce);
      Block.encode_into_big blk buf (off + 8);
      Cipher.xor_big cs.st ~nonce buf ~off:(off + 8) ~len:(t.payload_size - 8)

let unseal_from t buf off =
  let header = Bigbuf.get64_le buf off in
  if header = plain_nonce then Block.decode_from_big ~block_size:t.block_size buf (off + 8)
  else
    match t.cipher with
    | None -> invalid_arg "Storage: encrypted block but no cipher key"
    | Some cs ->
        Cipher.xor_big cs.st ~nonce:(Int64.to_int header) buf ~off:(off + 8)
          ~len:(t.payload_size - 8);
        Block.decode_from_big ~block_size:t.block_size buf (off + 8)

(* ---- run sealing: the batched counterpart of [seal_into].

   The [n] nonces are reserved up front — block [i] seals under
   [base + i], exactly the sequence the per-block loop would draw — so
   the whole run can be encoded and XORed as equally-spaced regions of
   [run_buf]: one [Cipher.xor_run] per chunk (the ChaCha20 engine
   dispatches 8 regions per SIMD batch), fanned across the store's
   worker pool when [seal_domains > 1]. Serial and parallel sealing
   produce the same bytes by construction. *)

let seal_run t blks n =
  match t.cipher with
  | None ->
      for i = 0 to n - 1 do
        let off = i * t.payload_size in
        Bigbuf.set64_le t.run_buf off plain_nonce;
        Block.encode_into_big blks.(i) t.run_buf (off + 8)
      done
  | Some cs ->
      let base = cs.next_nonce in
      if base + n > t.nonce_reserved then begin
        t.nonce_reserved <- base + n + nonce_chunk;
        write_header t
      end;
      cs.next_nonce <- base + n;
      with_seal_tel t ~op:Telemetry.Seal ~blocks:n (fun () ->
          parallel_chunks t n (fun lo hi ->
              if lo < hi then begin
                for i = lo to hi - 1 do
                  let off = i * t.payload_size in
                  Bigbuf.set64_le t.run_buf off (Int64.of_int (base + i));
                  Block.encode_into_big blks.(i) t.run_buf (off + 8)
                done;
                let nonces = Array.init (hi - lo) (fun j -> base + lo + j) in
                Cipher.xor_run cs.st ~nonces t.run_buf
                  ~off:((lo * t.payload_size) + 8)
                  ~stride:t.payload_size
                  ~len:(t.payload_size - 8)
              end))

(* Unseal a whole run from [buf] into [out]. When every payload is
   sealed (the steady state of a ciphered store) the nonces come from
   the payload headers and the run opens through the same
   [Cipher.xor_run] fast path, chunk-parallel like [seal_run]; a mix of
   plaintext and sealed blocks (or a cipherless store) falls back to the
   per-block open. Either way the run is timed as cipher work on a
   sealed store, as [n] single-block reads would be. *)
let all_sealed t buf n =
  let rec from i =
    i >= n || (Bigbuf.get64_le buf (i * t.payload_size) <> plain_nonce && from (i + 1))
  in
  t.cipher <> None && from 0

let unseal_run t buf n out =
  with_seal_tel t ~op:Telemetry.Unseal ~blocks:n (fun () ->
      if all_sealed t buf n then
        let cs = Option.get t.cipher in
        parallel_chunks t n (fun lo hi ->
            if lo < hi then begin
              let nonces =
                Array.init (hi - lo) (fun j ->
                    Int64.to_int (Bigbuf.unsafe_get64_le buf ((lo + j) * t.payload_size)))
              in
              Cipher.xor_run cs.st ~nonces buf
                ~off:((lo * t.payload_size) + 8)
                ~stride:t.payload_size
                ~len:(t.payload_size - 8);
              for i = lo to hi - 1 do
                out.(i) <-
                  Block.decode_from_big ~block_size:t.block_size buf ((i * t.payload_size) + 8)
              done
            end)
      else
        for i = 0 to n - 1 do
          out.(i) <- unseal_from t buf (i * t.payload_size)
        done)

(* ---- the run engine: every transfer, single-block or batched, goes
   through [run_transfer], which drives the backend's run API and
   resumes after transient faults at the faulting block.

   Failed attempts on counted operations are themselves disk accesses
   Bob observes, so each one is recorded in the trace (and tallied in
   [Stats.retries]); the fault schedule of a faulty backend depends only
   on its access index, never on data, so oblivious algorithms keep
   identical traces with failures enabled. Uncounted (out-of-band)
   operations retry silently: they model the experimenter's view, not
   Alice's protocol.

   [record] fires once per block in address order, exactly where a loop
   of single-block transfers would have recorded it: blocks transferred
   before a mid-run fault are recorded before the fault's retry op. A
   run of [n] blocks therefore emits a trace bit-identical to [n] runs
   of one, which is what keeps obliviousness checkable by the
   pair-tester however the blocks travel. Attempts are counted per
   block too: a fresh faulting block restarts at attempt 1.

   Retries are immediate. The only source of [Backend.Transient] is the
   fault injector, whose schedule advances with its access counter and
   nothing else, so waiting between attempts would change no outcome. ---- *)

let max_retries = 10

let run_transfer t ~counted ~record_retry ~record ~addr ~n ~do_run =
  let fin = addr + n in
  let rec go a attempt =
    if a < fin then
      match do_run ~addr:a ~count:(fin - a) ~off:((a - addr) * t.payload_size) with
      | () -> for i = a to fin - 1 do record i done
      | exception Backend.Transient { addr = fa; _ } ->
          for i = a to fa - 1 do record i done;
          let attempt = if fa > a then 1 else attempt in
          if attempt >= max_retries then raise (Io_failure { addr = fa; attempts = attempt });
          Telemetry.add_faults t.tel 1;
          if counted then begin
            Stats.record_retry t.stats;
            Telemetry.add_retries t.tel 1;
            record_retry t fa
          end;
          go fa (attempt + 1)
  in
  go addr 1

let record_read t a =
  Stats.record_read t.stats;
  Stats.record_moved t.stats t.payload_size;
  Telemetry.add_ios t.tel 1;
  Telemetry.add_bytes t.tel t.payload_size;
  Trace.record t.trace (Trace.Read a);
  shard_record t a (fun inner -> Trace.Read inner)

let record_write t a =
  Stats.record_write t.stats;
  Stats.record_moved t.stats t.payload_size;
  Telemetry.add_ios t.tel 1;
  Telemetry.add_bytes t.tel t.payload_size;
  Trace.record t.trace (Trace.Write a);
  shard_record t a (fun inner -> Trace.Write inner)

(* A counted retry is a disk access the faulting shard's server observed
   too: it lands in that shard's trace as well as the logical one. *)
let record_retry_read t a =
  Trace.record t.trace (Trace.Retry_read a);
  shard_record t a (fun inner -> Trace.Retry_read inner)

let record_retry_write t a =
  Trace.record t.trace (Trace.Retry_write a);
  shard_record t a (fun inner -> Trace.Retry_write inner)

let transfer_read t ~counted ~record ~addr ~n ~buf =
  run_transfer t ~counted ~record_retry:record_retry_read ~record ~addr ~n
    ~do_run:(fun ~addr ~count ~off ->
      Backend.read_run t.backend ~addr ~count ~payload:t.payload_size ~buf ~off)

let transfer_write t ~counted ~record ~addr ~n ~buf =
  run_transfer t ~counted ~record_retry:record_retry_write ~record ~addr ~n
    ~do_run:(fun ~addr ~count ~off ->
      Backend.write_run t.backend ~addr ~count ~payload:t.payload_size ~buf ~off)

let alloc t n =
  if n < 0 then invalid_arg "Storage.alloc: negative size";
  let base = t.used in
  if n > 0 then begin
    Backend.ensure t.backend (t.used + n);
    t.used <- t.used + n;
    (* Zero-initialization is the server's job and costs no counted I/O;
       retries here stay out of the trace for the same reason. Batched
       runs change neither property: a faulty backend gates once per
       block per attempt whether or not the blocks travel together. *)
    let zero = Block.make t.block_size in
    let chunk = 256 in
    let c0 = min chunk n in
    ensure_run_buf t c0;
    (* The zero image is public — zero-initialization is the server's
       own uncounted work — so fresh blocks carry the plaintext marker
       even on a ciphered store: sealing a constant the adversary
       already computes himself would spend keystream and nonces for
       nothing. [unseal_from] opens the plain marker on any store, so a
       read of a never-written block still decodes to empties. One
       encode + blits fill the run, which stays valid across chunks. *)
    Bigbuf.set64_le t.run_buf 0 plain_nonce;
    Block.encode_into_big zero t.run_buf 8;
    for i = 1 to c0 - 1 do
      Bigbuf.blit t.run_buf 0 t.run_buf (i * t.payload_size) t.payload_size
    done;
    let a = ref base in
    atomically t (fun () ->
        while !a < base + n do
          let c = min chunk (base + n - !a) in
          transfer_write t ~counted:false ~record:(fun _ -> ()) ~addr:!a ~n:c
            ~buf:t.run_buf;
          a := !a + c
        done)
  end;
  base

let check_addr t addr =
  if addr < 0 || addr >= t.used then
    invalid_arg (Printf.sprintf "Storage: address %d out of bounds (capacity %d)" addr t.used)

let check_block t ~who blk =
  if Array.length blk <> t.block_size then invalid_arg (who ^ ": block has wrong size")

let read t addr =
  check_addr t addr;
  transfer_read t ~counted:true ~record:(record_read t) ~addr ~n:1 ~buf:t.seal_buf;
  with_seal_tel t ~op:Telemetry.Unseal ~blocks:1 (fun () -> unseal_from t t.seal_buf 0)

let write t addr blk =
  check_addr t addr;
  check_block t ~who:"Storage.write" blk;
  with_seal_tel t ~op:Telemetry.Seal ~blocks:1 (fun () -> seal_into t blk t.seal_buf 0);
  transfer_write t ~counted:true ~record:(record_write t) ~addr ~n:1 ~buf:t.seal_buf

(* ---- batched logical I/O. One [Trace.Read]/[Write] op and one Stats
   tick per logical block in address order — the same view Bob gets from
   a loop of {!read}/{!write} — while the backend sees one contiguous
   run. A run of one is exactly {!read}/{!write}. ---- *)

let read_many t addr n =
  if n < 0 then invalid_arg "Storage.read_many: negative count";
  if n = 0 then [||]
  else begin
    check_addr t addr;
    check_addr t (addr + n - 1);
    if n = 1 then [| read t addr |]
    else begin
      ensure_run_buf t n;
      transfer_read t ~counted:true ~record:(record_read t) ~addr ~n ~buf:t.run_buf;
      Stats.record_batched t.stats n;
      let out = Array.make n [||] in
      unseal_run t t.run_buf n out;
      out
    end
  end

let write_many t addr blks =
  let n = Array.length blks in
  if n > 0 then begin
    check_addr t addr;
    check_addr t (addr + n - 1);
    Array.iter (check_block t ~who:"Storage.write_many") blks;
    atomically t (fun () ->
        if n = 1 then write t addr blks.(0)
        else begin
          ensure_run_buf t n;
          (* The run sealer draws nonces in index order — the same
             sequence as a loop of [write]s. *)
          seal_run t blks n;
          transfer_write t ~counted:true ~record:(record_write t) ~addr ~n ~buf:t.run_buf;
          Stats.record_batched t.stats n
        end)
  end

let unchecked_peek t addr =
  check_addr t addr;
  transfer_read t ~counted:false ~record:(fun _ -> ()) ~addr ~n:1 ~buf:t.seal_buf;
  unseal_from t t.seal_buf 0

let unchecked_poke t addr blk =
  check_addr t addr;
  check_block t ~who:"Storage.unchecked_poke" blk;
  seal_into t blk t.seal_buf 0;
  transfer_write t ~counted:false ~record:(fun _ -> ()) ~addr ~n:1 ~buf:t.seal_buf
