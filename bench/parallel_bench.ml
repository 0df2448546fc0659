(* The domain-parallelism bench behind `dune exec bench/main.exe -- parallel`:
   runs the same fuzz smoke twice — sequentially (-j 1) and fanned out
   over N pool domains — writes BENCH_parallel.json, and gates the two
   properties the pool promises:

   - determinism (hard gate): the fuzz summary digest at -j N must be
     byte-identical to -j 1;
   - speedup (gated only when --min-speedup > 0): wall(-j 1) / wall(-j N)
     must reach the threshold. Wall-clock speedup depends on the host
     having that many cores, so single-core machines and oversubscribed
     CI runners record the honest ratio without failing; when the host
     reports fewer domains than -j, the report marks it
     [speedup_measurable: false] and the log prints "not measurable"
     in its place. Pass --min-speedup 2.0 on a >= 4-core machine to
     enforce the paper's target. *)

module Fuzz = Lemur_check.Fuzz
module Pool = Lemur_util.Pool
module Kit = Bench_kit
module Json = Lemur_telemetry.Json

(* ------------------------------------------------------------------ *)
(* Adversarially skewed synthetic corpus: one ~100x-cost item first and
   one last, cheap items between. Under the old queue-per-item pool a
   worker that drew a heavy item serialized everything queued behind
   it; chunked work-stealing bounds the damage to the heavy item
   itself. The spin kernel is a pure integer recurrence, so results —
   and the digest over them — are identical at any -j. *)

let spin iters x =
  let h = ref x in
  for _ = 1 to iters do
    h := ((!h * 1103515245) + 12345) land 0x3FFFFFFF;
    h := !h lxor (!h lsr 13)
  done;
  !h

let skew_items = 64
let skew_base_iters = 400_000
let skew_heavy_factor = 100

let skewed_corpus () =
  List.init skew_items (fun i ->
      let iters =
        if i = 0 || i = skew_items - 1 then skew_heavy_factor * skew_base_iters
        else skew_base_iters
      in
      (i, iters))

(* max/mean busy time across the executors that actually ran items: 1.0
   is a perfectly level run, [executors] is one executor doing
   everything. *)
let imbalance busy =
  let active = List.filter (fun b -> b > 0) (Array.to_list busy) in
  match active with
  | [] -> 1.0
  | _ ->
      let sum = List.fold_left ( + ) 0 active in
      let mean = float_of_int sum /. float_of_int (List.length active) in
      float_of_int (List.fold_left max 0 active) /. mean

let run_skewed ~jobs =
  Pool.reset_busy ();
  let results =
    Pool.map ~domains:jobs (fun (i, iters) -> spin iters (i + 1)) (skewed_corpus ())
  in
  (results, Pool.busy_ns ())

let skewed_digest (results, _) =
  Digest.to_hex
    (Digest.string
       (String.concat ","
          (List.map
             (function
               | Ok v -> string_of_int v
               | Error (e : Pool.job_error) -> "error:" ^ e.Pool.message)
             results)))

let skewed_json ~jobs (side : _ Kit.side) =
  let busy = snd side.Kit.value in
  Json.Obj
    [
      ("jobs", Json.Int jobs);
      ("wall_s", Json.Float side.Kit.wall);
      ("digest", Json.String side.Kit.digest);
      ("imbalance", Json.Float (imbalance busy));
      ( "busy_ns",
        Json.List (List.map (fun b -> Json.Int b) (Array.to_list busy)) );
    ]

let run_json ~jobs (side : Fuzz.summary Kit.side) =
  let s = side.Kit.value and wall = side.Kit.wall in
  Json.Obj
    [
      ("jobs", Json.Int jobs);
      ("wall_s", Json.Float wall);
      ( "scenarios_per_sec",
        Json.Float
          (if wall > 0.0 then float_of_int s.Fuzz.scenarios /. wall else 0.0)
      );
      ("scenarios", Json.Int s.Fuzz.scenarios);
      ("placements_checked", Json.Int s.Fuzz.placements_checked);
      ("failures", Json.Int (List.length s.Fuzz.failures));
      ("digest", Json.String s.Fuzz.digest);
    ]

let speedup v =
  if v.Kit.par.Kit.wall > 0.0 then v.Kit.seq.Kit.wall /. v.Kit.par.Kit.wall
  else 0.0

let main args =
  let seed = ref 1 and count = ref None and jobs = ref (Kit.default_jobs ())
  and min_speedup = ref 0.0 in
  Kit.main ~cmd:"parallel" ~out:"BENCH_parallel.json"
    ~specs:
      (Kit.seed seed @ Kit.count count @ Kit.jobs jobs
      @ [
          ( "--min-speedup",
            Arg.Set_float min_speedup,
            "X fail below this -j 1 / -j N wall ratio (default 0: record \
             only)" );
        ])
    args
  @@ fun () ->
  let count = Option.value !count ~default:200 and jobs = !jobs in
  let min_speedup = !min_speedup in
  (* a ratio over more domains than the host has measures the
     oversubscription, not the pool *)
  let measurable = Kit.host_domains () >= jobs in
  let print_speedup label x suffix =
    if measurable then Printf.printf "%s: %.2fx%s\n" label x suffix
    else
      Printf.printf
        "%s: not measurable on this host (%d domain(s) for -j %d)%s\n"
        label (Kit.host_domains ()) jobs suffix
  in
  Printf.printf "## parallel: fuzz smoke, %d scenarios from seed %d, %s\n%!"
    count !seed (Kit.jobs_note jobs);
  let fuzz =
    Kit.versus ~jobs
      ~digest:(fun s -> s.Fuzz.digest)
      (fun ~jobs -> Fuzz.run ~quick:true ~sim:true ~jobs ~seed:!seed ~count ())
  in
  let speedup_fuzz = speedup fuzz in
  let speedup_ok = min_speedup <= 0.0 || speedup_fuzz >= min_speedup in
  print_speedup "speedup" speedup_fuzz
    (Printf.sprintf " (threshold %.2fx: %s)" min_speedup
       (if min_speedup <= 0.0 then "record-only"
        else if speedup_ok then "ok"
        else "FAILED"));
  Printf.printf
    "## parallel: skewed corpus, %d items with 2 x %dx outliers (first and \
     last), -j 1 vs -j %d\n%!"
    skew_items skew_heavy_factor jobs;
  let skewed =
    Kit.versus ~label:"skewed determinism" ~jobs ~digest:skewed_digest run_skewed
  in
  Printf.printf "  imbalance at -j %d: %.2f\n" jobs
    (imbalance (snd skewed.Kit.par.Kit.value));
  print_speedup "skewed speedup" (speedup skewed) "";
  {
    Kit.schema = "lemur.bench.parallel/1";
    fields =
      [
        ("seed", Json.Int !seed);
        ("count", Json.Int count);
        ("sequential", run_json ~jobs:1 fuzz.Kit.seq);
        ("parallel", run_json ~jobs fuzz.Kit.par);
        ("speedup", Json.Float speedup_fuzz);
        ("speedup_measurable", Json.Bool measurable);
        ("min_speedup", Json.Float min_speedup);
        ( "skewed",
          Json.Obj
            [
              ("items", Json.Int skew_items);
              ("heavy_factor", Json.Int skew_heavy_factor);
              ("sequential", skewed_json ~jobs:1 skewed.Kit.seq);
              ("parallel", skewed_json ~jobs skewed.Kit.par);
              ("digests_equal", Json.Bool skewed.Kit.digests_equal);
              ("speedup", Json.Float (speedup skewed));
            ] );
      ];
    gates =
      [
        Kit.digest_gate fuzz;
        Kit.gate "skewed_digests_equal" skewed.Kit.digests_equal
          (Printf.sprintf "skewed-corpus digests differ between -j 1 and -j %d"
             jobs);
        Kit.gate "speedup_ok" speedup_ok
          (Printf.sprintf "speedup %.2fx below the %.2fx threshold" speedup_fuzz
             min_speedup);
      ];
  }
