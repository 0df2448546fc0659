(* The packet-engine bench behind `dune exec bench/main.exe -- packets`:
   generates a seeded scenario corpus, places each with the Lemur
   heuristic, executes every accepted placement packet-by-packet on
   Lemur_dataplane.Engine, and gates three properties into
   BENCH_packets.json:

   - convergence (hard gate): every engine run must agree with the
     batch-rate simulator on the same placement at the same offered
     rates, within the Lemur_check.Convergence tolerances documented
     in docs/DATAPLANE.md;
   - conservation (hard gate): injected = delivered + dropped +
     in-flight on every chain of every run;
   - determinism (hard gate): the corpus digest — per-chain packet
     counters and delivered rates, folded in seed order — at -j N must
     be byte-identical to -j 1.

   Throughput is reported twice, on separate lines: packets injected
   per host wall-clock second, and packet-hops per second (a packet
   crossing one server element is one hop). Fully offloaded runs serve
   every packet on the switch and record 0 hops, so the share of
   injected packets in those runs is reported next to them. *)

module Strategy = Lemur_placer.Strategy
module Plan = Lemur_placer.Plan
module Scenario = Lemur_check.Scenario
module Convergence = Lemur_check.Convergence
module Engine = Lemur_dataplane.Engine
module Sim = Lemur_dataplane.Sim
module Kit = Bench_kit
module Units = Lemur_util.Units
module Json = Lemur_telemetry.Json

type run = {
  r_seed : int;
  r_chains : int;
  r_offered : float;  (* bit/s, summed over chains *)
  r_delivered : float;
  r_injected : int;
  r_hops : int;
  r_wall : float;
  r_conserved : bool;
  r_divergences : string list;
  r_digest_line : string;
}

(* One corpus seed: generate, place, execute both ways, compare. An
   infeasible scenario contributes nothing (None) — which seeds those
   are is deterministic, so the corpus is still identical at any -j. *)
let run_seed ~quick seed =
  let scenario = Scenario.generate ~quick:true ~seed () in
  let cfg = Scenario.config scenario in
  let inputs = Scenario.inputs scenario in
  match Strategy.place Strategy.Lemur cfg inputs with
  | Strategy.Infeasible _ -> None
  | Strategy.Placed p ->
      let er =
        Engine.run ~seed:(seed + 13)
          ~duration:(Units.ms (if quick then 5.0 else 10.0))
          ~overdrive:1.0 ~config:cfg ~placement:p ()
      in
      let sr =
        Sim.run ~seed:(seed + 13)
          ~duration:(Units.ms (if quick then 10.0 else 20.0))
          ~overdrive:1.0 ~config:cfg ~placement:p ()
      in
      let verdict =
        Convergence.check ~pkt_bytes:cfg.Plan.pkt_bytes ~engine:er ~sim:sr ()
      in
      (* Exactly the deterministic outcomes: virtual-time counters and
         measured rates, never wall-clock. This is what the -j 1 vs
         -j N byte-identity gate hashes. *)
      let buf = Buffer.create 256 in
      Buffer.add_string buf (string_of_int seed);
      List.iter
        (fun (c : Engine.chain_result) ->
          Buffer.add_string buf
            (Printf.sprintf "|%s=%.17g:%d/%d/%d/%d/%d" c.Engine.chain_id
               c.Engine.delivered c.Engine.injected_pkts
               c.Engine.delivered_pkts c.Engine.dropped_pkts
               c.Engine.shaped_pkts c.Engine.in_flight_pkts))
        er.Engine.chains;
      Buffer.add_string buf
        (Printf.sprintf "|conv%b" (Convergence.ok verdict));
      Some
        {
          r_seed = seed;
          r_chains = List.length er.Engine.chains;
          r_offered =
            List.fold_left
              (fun a (c : Engine.chain_result) -> a +. c.Engine.offered)
              0.0 er.Engine.chains;
          r_delivered = er.Engine.aggregate_throughput;
          r_injected =
            List.fold_left
              (fun a (c : Engine.chain_result) -> a + c.Engine.injected_pkts)
              0 er.Engine.chains;
          r_hops = er.Engine.total_served;
          r_wall = er.Engine.wall_s;
          r_conserved = Engine.conserved er;
          r_divergences =
            List.map
              (Format.asprintf "%a" Convergence.pp_divergence)
              verdict.Convergence.divergences;
          r_digest_line = Buffer.contents buf;
        }

let rate n wall = if wall > 0.0 then float_of_int n /. wall else 0.0

let run_json r =
  Json.Obj
    [
      ("seed", Json.Int r.r_seed);
      ("chains", Json.Int r.r_chains);
      ("offered_gbps", Json.Float (r.r_offered /. 1e9));
      ("delivered_gbps", Json.Float (r.r_delivered /. 1e9));
      ("injected_pkts", Json.Int r.r_injected);
      ("packet_hops", Json.Int r.r_hops);
      ("wall_s", Json.Float r.r_wall);
      ("hops_per_sec", Json.Float (rate r.r_hops r.r_wall));
      ("conserved", Json.Bool r.r_conserved);
      ("converged", Json.Bool (r.r_divergences = []));
    ]

let main args =
  let seed = ref 1 and count = ref None and jobs = ref (Kit.default_jobs ())
  and quick = ref false in
  Kit.main ~cmd:"packets" ~out:"BENCH_packets.json"
    ~specs:(Kit.quick quick @ Kit.seed seed @ Kit.count count @ Kit.jobs jobs)
    args
  @@ fun () ->
  let count = Option.value !count ~default:(if !quick then 8 else 24) in
  let jobs = !jobs in
  let seeds = List.init count (fun i -> !seed + i) in
  Printf.printf
    "## packets: %d scenario seed(s) from %d, engine vs sim at overdrive 1.0, \
     %s\n%!"
    count !seed (Kit.jobs_note jobs);
  let v =
    Kit.corpus_versus ~jobs
      ~lines:(List.filter_map (Option.map (fun r -> r.r_digest_line)))
      (fun seed -> run_seed ~quick:!quick seed)
      seeds
  in
  let crashes = Kit.crashes v in
  (* [run_seed] answers None for an infeasible scenario *)
  let par_runs = List.filter_map Fun.id v.Kit.par.Kit.value.Kit.runs in
  let wall = List.fold_left (fun a r -> a +. r.r_wall) 0.0 par_runs in
  let hops = List.fold_left (fun a r -> a + r.r_hops) 0 par_runs in
  let injected = List.fold_left (fun a r -> a + r.r_injected) 0 par_runs in
  (* Fully offloaded runs serve every packet on the switch: 0 hops, yet
     they carry most of the injected packets and the engine wall. *)
  let offloaded =
    List.fold_left
      (fun a r -> if r.r_hops = 0 then a + r.r_injected else a)
      0 par_runs
  in
  let offloaded_share =
    if injected > 0 then float_of_int offloaded /. float_of_int injected
    else 0.0
  in
  List.iter
    (fun r ->
      Printf.printf
        "  seed %3d: %d chain(s), offered %6.2f Gbps, delivered %6.2f Gbps, \
         %7d hops in %.3fs%s%s\n"
        r.r_seed r.r_chains (r.r_offered /. 1e9) (r.r_delivered /. 1e9)
        r.r_hops r.r_wall
        (if r.r_conserved then "" else "  CONSERVATION VIOLATED")
        (if r.r_divergences = [] then "" else "  DIVERGED");
      List.iter
        (fun d -> Printf.printf "      divergence: %s\n" d)
        r.r_divergences)
    par_runs;
  let all_converged = List.for_all (fun r -> r.r_divergences = []) par_runs in
  let all_conserved = List.for_all (fun r -> r.r_conserved) par_runs in
  Printf.printf "placed %d of %d scenario(s)\n" (List.length par_runs) count;
  Printf.printf
    "packets/sec: %.0f (%d packets, %.0f%% in fully offloaded runs)\n"
    (rate injected wall) injected (100.0 *. offloaded_share);
  Printf.printf "packet-hops/sec: %.0f (%d hops, %.2fs engine wall)\n"
    (rate hops wall) hops wall;
  Printf.printf "convergence: %s\n"
    (if all_converged then "ok, every run within tolerance"
     else "DIVERGED from the rate model");
  Printf.printf "conservation: %s\n"
    (if all_conserved then "ok" else "VIOLATED");
  {
    Kit.schema = "lemur.bench.packets/1";
    fields =
      [
        ("seed", Json.Int !seed);
        ("count", Json.Int count);
        ("placed", Json.Int (List.length par_runs));
        ("jobs", Json.Int jobs);
        ("quick", Json.Bool !quick);
        ("runs", Json.List (List.map run_json par_runs));
        ("packet_hops", Json.Int hops);
        ("injected_pkts", Json.Int injected);
        ("offloaded_pkt_share", Json.Float offloaded_share);
        ("engine_wall_s", Json.Float wall);
        ("hops_per_sec", Json.Float (rate hops wall));
        ("packets_per_sec", Json.Float (rate injected wall));
        ("digest", Json.String v.Kit.par.Kit.digest);
        ("crashes", Json.List (List.map (fun m -> Json.String m) crashes));
      ];
    gates =
      [
        Kit.digest_gate v;
        Kit.gate "converged" all_converged
          "an engine run diverged from the rate model";
        Kit.gate "conserved" all_conserved
          "a run broke injected = delivered + dropped + in-flight";
        Kit.crash_gate crashes;
        Kit.gate "any_placed" (par_runs <> [])
          "no scenario of the corpus placed";
      ];
  }
