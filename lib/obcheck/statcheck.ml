open Odex_extmem

type verdict = {
  name : string;
  stat : float;
  df : int;
  critical : float;
  samples : int;
  pass : bool;
}

(* Upper critical value of the chi-square distribution by the
   Wilson–Hilferty cube approximation: (X/df)^(1/3) is close to normal
   with mean 1 - 2/(9 df) and variance 2/(9 df). Accurate to a few
   percent for df >= 3 — plenty for a pass/fail gate with generous z —
   and dependency-free. *)
let chi_square_critical ~df ~z =
  if df < 1 then invalid_arg "Statcheck.chi_square_critical: df must be >= 1";
  let dff = Float.of_int df in
  let h = 2. /. (9. *. dff) in
  let t = 1. -. h +. (z *. Float.sqrt h) in
  dff *. t *. t *. t

(* Two-sample chi-square homogeneity statistic over matched histograms
   (unequal totals handled by the usual sqrt(N2/N1) scaling). Bins empty
   in both samples carry no information and no degree of freedom. *)
let two_sample obs_a obs_b =
  let k = Array.length obs_a in
  if Array.length obs_b <> k then invalid_arg "Statcheck.two_sample: bin count mismatch";
  let total arr = Array.fold_left ( + ) 0 arr in
  let na = total obs_a and nb = total obs_b in
  if na = 0 || nb = 0 then invalid_arg "Statcheck.two_sample: empty sample";
  let k1 = Float.sqrt (Float.of_int nb /. Float.of_int na) in
  let k2 = Float.sqrt (Float.of_int na /. Float.of_int nb) in
  let stat = ref 0. and df = ref (-1) in
  for i = 0 to k - 1 do
    let a = obs_a.(i) and b = obs_b.(i) in
    if a + b > 0 then begin
      incr df;
      let d = (k1 *. Float.of_int a) -. (k2 *. Float.of_int b) in
      stat := !stat +. (d *. d /. Float.of_int (a + b))
    end
  done;
  (!stat, max 1 !df)

(* Goodness of fit against the uniform distribution over all bins. *)
let uniformity obs =
  let k = Array.length obs in
  if k < 2 then invalid_arg "Statcheck.uniformity: need >= 2 bins";
  let n = Array.fold_left ( + ) 0 obs in
  if n = 0 then invalid_arg "Statcheck.uniformity: empty sample";
  let e = Float.of_int n /. Float.of_int k in
  let stat =
    Array.fold_left
      (fun acc o ->
        let d = Float.of_int o -. e in
        acc +. (d *. d /. e))
      0. obs
  in
  (stat, k - 1)

(* Fold an op sequence into a fixed-width address histogram, reads and
   writes in separate halves: bin collisions (addr mod bins) can only
   hide a leak, never invent one, so the test stays sound (conservative
   in power, exact in level). Retries land with their direction. *)
let histogram_of_ops ~bins ops acc =
  List.iter
    (fun op ->
      let dir, addr =
        match op with
        | Trace.Read a | Trace.Retry_read a -> (0, a)
        | Trace.Write a | Trace.Retry_write a -> (1, a)
      in
      let i = (dir * bins) + (addr mod bins) in
      acc.(i) <- acc.(i) + 1)
    ops

(* Deterministic disjoint coin streams: input A runs under seeds
   [0, samples), input B under [1000, 1000 + samples) (the streams stay
   disjoint for any samples <= 1000, asserted below). Same seeds every
   run of the suite — the verdict is reproducible, not flaky. *)
let seed_a i = i
let seed_b i = 1000 + i

(* The distributional form of the obliviousness claim: with the coins
   {e free} (not fixed, as in Pairtest), the distribution of Bob's view
   must still be independent of the stored values. Run the subject
   [samples] times on each of two value-disjoint same-shape inputs,
   each run under its own coin seed, and chi-square the two pooled
   address histograms. Complements Pairtest exactly where Pairtest is
   silent: a subject could be per-coin oblivious yet skew its coin
   {e usage} by data (e.g. biasing a shuffle when the input is sorted),
   which only shows up across coin draws. *)
let trace_distribution ?(samples = 200) ?(bins = 64) ?(z = 3.29) subject ~n_cells ~b ~m =
  if samples < 2 then invalid_arg "Statcheck.trace_distribution: need >= 2 samples";
  if samples > 1000 then invalid_arg "Statcheck.trace_distribution: seed streams would collide";
  if bins < 2 then invalid_arg "Statcheck.trace_distribution: need >= 2 bins";
  let cells_a, cells_b = Pairtest.pair_inputs ~seed:0x57A7 ~n:n_cells in
  let run cells seed acc =
    let s = Storage.create ~trace_mode:Trace.Full ~block_size:b () in
    Fun.protect
      ~finally:(fun () -> Storage.close s)
      (fun () ->
        let arr = Ext_array.of_cells s ~block_size:b cells in
        let rng = Odex_crypto.Rng.create ~seed in
        subject.Pairtest.run ~rng ~m s arr;
        histogram_of_ops ~bins (Trace.ops (Storage.trace s)) acc)
  in
  let ha = Array.make (2 * bins) 0 and hb = Array.make (2 * bins) 0 in
  for i = 0 to samples - 1 do
    run cells_a (seed_a i) ha;
    run cells_b (seed_b i) hb
  done;
  let stat, df = two_sample ha hb in
  let critical = chi_square_critical ~df ~z in
  {
    name = subject.Pairtest.name;
    stat;
    df;
    critical;
    samples;
    pass = stat <= critical;
  }

(* Package one two-sample comparison, degrading gracefully on empty
   histograms: both empty carries no information (vacuous pass with the
   weakest gate), exactly one empty is itself maximal divergence. *)
let two_sample_verdict ~name ~z ~samples ha hb =
  let total = Array.fold_left ( + ) 0 in
  match (total ha, total hb) with
  | 0, 0 ->
      { name; stat = 0.; df = 1; critical = chi_square_critical ~df:1 ~z; samples; pass = true }
  | 0, _ | _, 0 ->
      {
        name;
        stat = Float.infinity;
        df = 1;
        critical = chi_square_critical ~df:1 ~z;
        samples;
        pass = false;
      }
  | _ ->
      let stat, df = two_sample ha hb in
      let critical = chi_square_critical ~df ~z in
      { name; stat; df; critical; samples; pass = stat <= critical }

(* The per-server distributional tier. The combined histogram provably
   cannot see a leak that lives in {e which shard} serves an op: the
   logical address — all [trace_distribution] pools — is unchanged by
   routing, and a data-dependent extra op at logical addresses colliding
   modulo [bins] vanishes from the combined histogram entirely. Here the
   subject runs on a [shards]-stripe and each shard's own trace (inner
   addresses — what that server's device actually sees) is pooled and
   chi-squared separately, so a skew visible on a single server fails
   that server's verdict by name. *)
let shard_distribution ?(samples = 200) ?(bins = 64) ?(z = 3.29) ?(shards = 2)
    ?(stripe_seed = 0x5A4D) subject ~n_cells ~b ~m =
  if samples < 2 then invalid_arg "Statcheck.shard_distribution: need >= 2 samples";
  if samples > 1000 then
    invalid_arg "Statcheck.shard_distribution: seed streams would collide";
  if bins < 2 then invalid_arg "Statcheck.shard_distribution: need >= 2 bins";
  if shards < 1 then invalid_arg "Statcheck.shard_distribution: shards must be >= 1";
  let cells_a, cells_b = Pairtest.pair_inputs ~seed:0x57A7 ~n:n_cells in
  let run cells seed accs =
    let backend = Storage.Sharded { inner = Storage.Mem; shards; seed = stripe_seed } in
    let s = Storage.create ~trace_mode:Trace.Full ~backend ~block_size:b () in
    Fun.protect
      ~finally:(fun () -> Storage.close s)
      (fun () ->
        let arr = Ext_array.of_cells s ~block_size:b cells in
        let rng = Odex_crypto.Rng.create ~seed in
        subject.Pairtest.run ~rng ~m s arr;
        Array.iteri
          (fun i tr -> histogram_of_ops ~bins (Trace.ops tr) accs.(i))
          (Storage.shard_traces s))
  in
  let ha = Array.init shards (fun _ -> Array.make (2 * bins) 0) in
  let hb = Array.init shards (fun _ -> Array.make (2 * bins) 0) in
  for i = 0 to samples - 1 do
    run cells_a (seed_a i) ha;
    run cells_b (seed_b i) hb
  done;
  Array.init shards (fun si ->
      two_sample_verdict
        ~name:(Printf.sprintf "%s/shard%d" subject.Pairtest.name si)
        ~z ~samples ha.(si) hb.(si))

let uniformity_verdict ~name ?(z = 3.29) obs =
  let stat, df = uniformity obs in
  let critical = chi_square_critical ~df ~z in
  { name; stat; df; critical; samples = Array.fold_left ( + ) 0 obs; pass = stat <= critical }

let pp_verdict ppf v =
  Format.fprintf ppf "%s: chi2 = %.1f (df %d, critical %.1f, %d samples) => %s" v.name v.stat
    v.df v.critical v.samples
    (if v.pass then "consistent" else "REJECTED")
