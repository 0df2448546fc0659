(* The datacenter-scale bench behind `dune exec bench/main.exe -- scale`:
   builds a synthetic spine/leaf fabric, expands a tenant population
   into thousands of chain demands, runs the sharded placer twice —
   sequentially (-j 1) and fanned out over N pool domains — and gates
   three properties into BENCH_scale.json:

   - determinism (hard gate): the fabric-placement digest at -j N must
     be byte-identical to -j 1;
   - correctness (hard gate): the -j N placement must pass the
     fabric-level oracle (Lemur_check.Fabric_check) — every shard
     oracle-clean, uplink budgets respected, no unbudgeted cross-rack
     chain;
   - wall clock (hard gate): the parallel run must finish within
     --budget-s seconds. The default scenario is the ROADMAP target —
     50 racks / 2000 chains; --quick shrinks it to 4 racks / 64 chains
     for CI smoke;
   - wall-clock ratchet (hard gate, default full-size run only): the
     sequential placement must finish within [ratchet_s].

   The budgets are generous (the gate catches order-of-magnitude
   regressions, not noise); the ratchet is tight enough to catch the
   eviction peel losing its static victim order (docs/PERFORMANCE.md).
   The JSON records the honest timing either way. *)

module Fabric = Lemur_topology.Fabric
module Shard = Lemur_placer.Shard
module Fabric_check = Lemur_check.Fabric_check
module Kit = Bench_kit
module Json = Lemur_telemetry.Json

let cross_rack (fp : Shard.fabric_placement) =
  List.length
    (List.filter
       (fun (a : Shard.assignment) -> a.Shard.a_cross)
       fp.Shard.assignments)

(* About 3x the sequential 50-rack placement with the static victim
   order and the indexed table graph (3.1 s, dev profile, one-core
   host); the rescan-every-step peel took 13.6 s there. *)
let ratchet_s = 10.0

let run_json ~jobs ~chains (fp : Shard.fabric_placement) wall =
  Json.Obj
    [
      ("jobs", Json.Int jobs);
      ("wall_s", Json.Float wall);
      ( "chains_per_sec",
        Json.Float (if wall > 0.0 then float_of_int chains /. wall else 0.0) );
      ("repair_moves", Json.Int (List.length fp.Shard.repairs));
      ("cross_rack_chains", Json.Int (cross_rack fp));
      ("total_rate_gbps", Json.Float (fp.Shard.total_rate /. 1e9));
      ("total_marginal_gbps", Json.Float (fp.Shard.total_marginal /. 1e9));
      ("cores_used", Json.Int fp.Shard.cores_used);
      ("digest", Json.String (Shard.digest fp));
    ]

let main args =
  let racks = ref None and chains = ref None and tenants = ref None
  and seed = ref 1 and jobs = ref (Kit.default_jobs ()) and budget_s = ref None
  and quick = ref false in
  Kit.main ~cmd:"scale" ~out:"BENCH_scale.json"
    ~specs:
      (Kit.quick quick
      @ Kit.size "--racks" "fabric racks (default 50, --quick 4)" racks
      @ Kit.size "--chains" "chain demands (default 2000, --quick 64)" chains
      @ Kit.size "--tenants" "tenants (default max 4 (2 x racks))" tenants
      @ Kit.seed seed @ Kit.jobs jobs
      @ [
          ( "--budget-s",
            Arg.Float (fun b -> budget_s := Some b),
            "X wall-clock budget of the fanned-out run (default 300, \
             --quick 60)" );
        ])
    args
  @@ fun () ->
  let full_size =
    (not !quick) && !racks = None && !chains = None && !tenants = None
  in
  let racks = Option.value !racks ~default:(if !quick then 4 else 50) in
  let chains = Option.value !chains ~default:(if !quick then 64 else 2000) in
  let tenants = Option.value !tenants ~default:(max 4 (2 * racks)) in
  let budget =
    Option.value !budget_s ~default:(if !quick then 60.0 else 300.0)
  in
  let jobs = !jobs in
  let fabric = Fabric.synthetic ~racks () in
  let demands =
    Fabric.expand (Fabric.synthetic_tenants ~seed:!seed ~tenants ~chains fabric)
  in
  let cfg = Shard.default_config fabric in
  Printf.printf
    "## scale: %d rack(s) (%d NF cores), %d tenant(s) -> %d chain(s), %.1f Gbps \
     aggregate floor, %s\n%!"
    racks
    (Fabric.total_nf_cores fabric)
    tenants (List.length demands)
    (Fabric.total_demand demands /. 1e9)
    (Kit.jobs_note jobs);
  let v =
    Kit.versus ~jobs
      ~digest:(function
        | Shard.Placed fp -> Shard.digest fp
        | Shard.Infeasible _ -> "infeasible")
      (fun ~jobs -> Shard.place ~jobs cfg demands)
  in
  let placed label (side : Shard.outcome Kit.side) =
    match side.Kit.value with
    | Shard.Infeasible { errors; repairs } ->
        Printf.printf "  %s: INFEASIBLE (%d repair move(s)):\n" label
          (List.length repairs);
        List.iter
          (fun e -> Printf.printf "    %s\n" (Shard.error_to_string e))
          errors;
        None
    | Shard.Placed fp ->
        Printf.printf "  %s: %d repair move(s), %d cross-rack\n" label
          (List.length fp.Shard.repairs) (cross_rack fp);
        Some fp
  in
  let seq_fp = placed "-j 1" v.Kit.seq in
  let par_fp = placed (Printf.sprintf "-j %d" jobs) v.Kit.par in
  let oracle_violations =
    match par_fp with
    | None -> [ "placement infeasible" ]
    | Some fp -> (
        match Fabric_check.check fp with
        | Ok () -> []
        | Error vs ->
            List.map
              (fun v -> Format.asprintf "%a" Fabric_check.pp_violation v)
              vs)
  in
  let par_wall = v.Kit.par.Kit.wall and seq_wall = v.Kit.seq.Kit.wall in
  let within_budget = par_wall <= budget in
  let within_ratchet = (not full_size) || seq_wall <= ratchet_s in
  (match oracle_violations with
  | [] -> Printf.printf "oracle: clean\n"
  | vs ->
      Printf.printf "oracle: %d VIOLATION(S)\n" (List.length vs);
      List.iteri (fun i v -> if i < 10 then Printf.printf "  %s\n" v) vs);
  Printf.printf "wall clock: %.2fs (budget %.0fs: %s)\n" par_wall budget
    (if within_budget then "ok" else "EXCEEDED");
  if full_size then
    Printf.printf "sequential: %.2fs (ratchet %.0fs: %s)\n" seq_wall ratchet_s
      (if within_ratchet then "ok" else "EXCEEDED");
  let side_json ~jobs fp (side : _ Kit.side) =
    match fp with
    | Some fp -> run_json ~jobs ~chains:(List.length demands) fp side.Kit.wall
    | None -> Json.Obj [ ("infeasible", Json.Bool true) ]
  in
  {
    Kit.schema = "lemur.bench.scale/1";
    fields =
      [
        ("seed", Json.Int !seed);
        ("racks", Json.Int racks);
        ("tenants", Json.Int tenants);
        ("chains", Json.Int (List.length demands));
        ("fabric_nf_cores", Json.Int (Fabric.total_nf_cores fabric));
        ( "aggregate_floor_gbps",
          Json.Float (Fabric.total_demand demands /. 1e9) );
        ("sequential", side_json ~jobs:1 seq_fp v.Kit.seq);
        ("parallel", side_json ~jobs par_fp v.Kit.par);
        ("budget_s", Json.Float budget);
        ("ratchet_s", if full_size then Json.Float ratchet_s else Json.Null);
      ];
    gates =
      [
        Kit.digest_gate v;
        Kit.gate "oracle_clean" (oracle_violations = [])
          "the fabric placement failed the oracle (or is infeasible)";
        Kit.gate "within_budget" within_budget
          (Printf.sprintf
             "fanned-out placement took %.2fs, over the %.0fs budget" par_wall
             budget);
        Kit.gate "within_ratchet" within_ratchet
          (Printf.sprintf
             "sequential placement took %.2fs, over the %.0fs ratchet" seq_wall
             ratchet_s);
      ];
  }
