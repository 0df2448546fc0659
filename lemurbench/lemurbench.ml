(* The Lemur benchmark: one process, one domain, three workloads.

     lemurbench --workload NAME --seed N --seconds S --trace 0|1
     lemurbench selftest

   Every workload is a closed loop with one caller: the next operation
   starts when the previous one returns. The benchmark calls only the
   public entry points of each layer (Shard.place, the runtime
   Engine.run, the packet Engine.run, Sim.run, Convergence.check,
   Fabric_check) and times them from outside. With --trace 0 it prints
   the end-to-end metrics; with --trace 1 it alternates untraced and
   traced operations, folds the telemetry spans and counters of each
   traced one into per-layer self time and work counts, and prints
   those. The last line of stdout is the JSON result. *)

module Telemetry = Lemur_telemetry.Telemetry
module Counter = Lemur_telemetry.Counter
module Stats = Lemur_util.Stats
module Shard = Lemur_placer.Shard
module Strategy = Lemur_placer.Strategy
module Plan = Lemur_placer.Plan
module Runtime = Lemur_runtime.Engine
module Report = Lemur_runtime.Report
module Trace = Lemur_runtime.Trace
module Dataplane = Lemur_dataplane.Engine
module Sim = Lemur_dataplane.Sim
module Convergence = Lemur_check.Convergence
module Fabric_check = Lemur_check.Fabric_check

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median xs = Stats.percentile 50.0 xs
let p99 xs = Stats.percentile 99.0 xs
let sum = List.fold_left ( +. ) 0.0
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Work per unit of time over the whole measured window. *)
let rate ~work walls = ratio (work *. float_of_int (List.length walls)) (sum walls)

(* Per-operation wall times and reference times go to stderr, for
   reading a run's noise. *)
let log_walls walls speeds =
  let line what xs =
    prerr_endline
      ("lemurbench: " ^ what ^ " s: "
      ^ String.concat " " (List.map (Printf.sprintf "%.4f") xs))
  in
  line "operation wall" walls;
  line "reference" speeds

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* setup_s: the median of at least 5 set-ups, repeated for at least half
   a second (at most 1000). They run after the measured loop, so that the
   heap high-water mark of the first operation has seen one set-up only. *)
let setup_time f =
  let stop = now () +. 0.5 in
  let rec go n acc =
    let acc = snd (timed f) :: acc in
    if n >= 5 && (now () >= stop || n >= 1000) then median acc else go (n + 1) acc
  in
  go 1 []

(* Heap high-water mark after one set-up and the first operation: what
   one run of the same work needs in a fresh process. *)
let first_op_heap_mb = ref 0.0

(* The reference kernel: fixed work owned by the benchmark, of the same
   kind as the program's (allocation, hashing, a sort, a balanced map),
   about 70 ms on a 2 GHz Xeon. On a shared 2-vCPU Xeon host the speed of
   identical work drifted by up to 1.8x within minutes while steal time
   stayed near 1%, so the spread of wall-time medians over ten runs
   exceeded any usable bound (0.34 on fabric_place). End-to-end timings
   are therefore reported in units of this kernel's time measured next
   to each operation, which still moves when the program gets faster but
   cancels much of the host's drift. *)
module Int_map = Map.Make (Int)

let reference_kernel () =
  let st = Random.State.make [| 7 |] in
  let n = 40_000 in
  let tbl = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    Hashtbl.replace tbl (Random.State.int st (n / 2)) (float_of_int i)
  done;
  let sorted = List.sort Float.compare (List.init n (fun _ -> Random.State.float st 1.0)) in
  let m = List.fold_left (fun m x -> Int_map.add (Hashtbl.hash x) x m) Int_map.empty sorted in
  ignore (Sys.opaque_identity (Int_map.cardinal m + Hashtbl.length tbl))

(* Run [op] back to back until [seconds] have passed; at least once.
   Between operations the reference kernel runs in batches that take
   about 15% of the operations' wall time, and always after the last
   one. Returns the results and, for each, the median kernel time of the
   first batch after it: the host's speed when it ran. *)
let repeat ~seconds op =
  let stop = now () +. seconds in
  let rec batch debt walls =
    if debt <= 0.0 && walls <> [] then (debt, median walls)
    else
      let w = snd (timed reference_kernel) in
      batch (debt -. w) (w :: walls)
  in
  let rec go results speeds pending debt =
    let r, wall = timed op in
    let results = r :: results in
    (match results with [ _ ] -> first_op_heap_mb := heap_mb () | _ -> ());
    let debt = debt +. (0.15 *. wall) and pending = pending + 1 in
    let last = now () >= stop in
    let speeds, pending, debt =
      if debt > 0.0 || last then
        let debt, speed = batch debt [] in
        (List.init pending (fun _ -> speed) @ speeds, 0, debt)
      else (speeds, pending, debt)
    in
    if last then (List.rev results, List.rev speeds) else go results speeds pending debt
  in
  go [] [] 0 0.0

(* Times in units of the reference kernel's time next to them. *)
let in_ref = List.map2 ( /. )

(* ------------------------------------------------------------------ *)
(* Metric catalogue: must match BENCHMARK.json (run.py checks it).      *)

let end_to_end =
  [
    ("setup_s", "s");
    ("latency_p50_ref", "ref");
    ("work_per_ref", "1/ref");
    ("marginal_gbps", "Gbps");
    ("delivered_gbps", "Gbps");
    ("ok_ratio", "ratio");
    ("peak_heap_mb", "MB");
  ]

let cases = [ "server"; "switch" ]

let per_layer =
  [
    ("placer.place.calls", "count");
    ("placer.place.self_s", "s");
    ("placer.evict_to_fit.s", "s");
    ("placer.evict.evictions", "count");
    ("placer.stagecheck.checks", "count");
    ("placer.stagecheck.s", "s");
    ("placer.stagecheck.fit_ratio", "ratio");
    ("placer.finalize.s", "s");
    ("placer.ratelp.solves", "count");
    ("placer.ratelp.s", "s");
    ("placer.memo.hit_ratio", "ratio");
    ("placer.varcache.hit_ratio", "ratio");
    ("lp.solves", "count");
    ("lp.pivots", "count");
    ("shard.residual_s", "s");
    ("dataplane.sim.runs", "count");
    ("dataplane.sim.s", "s");
    ("runtime.reconfigs", "count");
    ("runtime.replace.dirty", "count");
    ("runtime.replace.clean", "count");
    ("runtime.replace.warm_starts", "count");
    ("runtime.decide_residual_s", "s");
    ("runtime.loop_residual_s", "s");
    ("runtime.violation_s", "s");
    ("runtime.decide_p99_ms", "ms");
  ]
  @ List.concat_map
      (fun case ->
        List.map
          (fun (m, u) -> (Printf.sprintf "dataplane.engine.%s.%s" case m, u))
          [
            ("pkts", "count");
            ("hops", "count");
            ("hops_per_pkt", "count");
            ("pkts_per_s", "1/s");
            ("hops_per_s", "1/s");
            ("breaths", "count");
            ("offloaded_pkt_share", "ratio");
            ("dropped_pkts", "count");
            ("pool_exhausted", "count");
          ])
      cases
  @ [ ("telemetry.overhead_ratio", "ratio"); ("bench.reference_ms", "ms") ]

(* ------------------------------------------------------------------ *)
(* Tracing: one fresh registry per traced operation.                   *)

type traced = {
  root : Telemetry.span;  (** the benchmark's own span around the call *)
  self : (string, float) Hashtbl.t;  (** layer -> self seconds *)
  incl : (string, float) Hashtbl.t;  (** layer -> inclusive seconds *)
  spans : (string, int) Hashtbl.t;  (** layer -> span count *)
  counters : (string * int) list;
}

(* Strategy spans are named placer.place.<strategy>; they are one layer. *)
let layer_of_span name =
  if String.starts_with ~prefix:"placer.place." name then "placer.place"
  else name

let fold tm =
  let self = Hashtbl.create 16
  and incl = Hashtbl.create 16
  and spans = Hashtbl.create 16 in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.0)
  in
  let rec walk (s : Telemetry.span) =
    let layer = layer_of_span s.Telemetry.span_name in
    let covered =
      sum (List.map (fun c -> c.Telemetry.span_duration) s.Telemetry.span_children)
    in
    add self layer (s.Telemetry.span_duration -. covered);
    add incl layer s.Telemetry.span_duration;
    Hashtbl.replace spans layer
      (1 + Option.value (Hashtbl.find_opt spans layer) ~default:0);
    List.iter walk s.Telemetry.span_children
  in
  let roots = Telemetry.spans tm in
  List.iter walk roots;
  {
    root = List.hd roots;
    self;
    incl;
    spans;
    counters = List.map (fun c -> (Counter.name c, Counter.value c)) (Telemetry.counters tm);
  }

(* Run [f] under a fresh recording registry, inside a root span named
   [name]. Caches are dropped after the sink is installed so the memo's
   counters bind to it. *)
let with_trace name f =
  let tm = Telemetry.create () in
  Telemetry.set_current tm;
  Fun.protect
    ~finally:(fun () -> Telemetry.set_current Telemetry.disabled)
    (fun () ->
      Inputs.cold ();
      let r = Telemetry.with_span tm name f in
      (r, fold tm))

let self_s t layer = Option.value (Hashtbl.find_opt t.self layer) ~default:0.0
let incl_s t layer = Option.value (Hashtbl.find_opt t.incl layer) ~default:0.0
let count t name = float_of_int (Option.value (List.assoc_opt name t.counters) ~default:0)

let lp_pivots t =
  List.fold_left
    (fun a (name, v) ->
      if String.starts_with ~prefix:"lp.simplex." name
         && String.ends_with ~suffix:"pivots" name
      then a +. float_of_int v
      else a)
    0.0 t.counters

(* Placer and LP layers: the same names on every workload. *)
let placer_layers t =
  let c = count t in
  [
    ("placer.place.calls", c "placer.places");
    ("placer.place.self_s", self_s t "placer.place");
    ("placer.evict_to_fit.s", self_s t "placer.evict_to_fit");
    ("placer.evict.evictions", c "placer.evict.evictions");
    ("placer.stagecheck.checks", c "placer.stagecheck.checks");
    ("placer.stagecheck.s", self_s t "placer.stagecheck.check");
    ( "placer.stagecheck.fit_ratio",
      ratio (c "placer.stagecheck.fits") (c "placer.stagecheck.checks") );
    ("placer.finalize.s", self_s t "placer.finalize");
    ("placer.ratelp.solves", c "placer.ratelp.solves");
    ("placer.ratelp.s", self_s t "placer.ratelp.solve");
    ( "placer.memo.hit_ratio",
      ratio (c "placer.cache.hits") (c "placer.cache.hits" +. c "placer.cache.misses") );
    ( "placer.varcache.hit_ratio",
      ratio (c "placer.varcache.hits")
        (c "placer.varcache.hits" +. c "placer.varcache.misses") );
    ("lp.solves", c "lp.simplex.solves");
    ("lp.pivots", lp_pivots t);
  ]

(* Per-layer values of several traced operations: the median of each. *)
let median_layers samples =
  match samples with
  | [] -> []
  | first :: _ ->
      List.map
        (fun (name, _) -> (name, median (List.map (List.assoc name) samples)))
        first

(* ------------------------------------------------------------------ *)
(* Workload outcome                                                     *)

type outcome = {
  attempted : int;
  failed : int;
  problems : string list;  (** why operations failed, for stderr *)
  setup_s : float;
  reference_s : float;  (** median reference kernel time next to operations *)
  metrics : (string * float) list;
      (** end-to-end (untraced) or per-layer (traced) values; the
          catalogue fills the rest *)
}

(* An operation fails when its own check fails; a failed check that
   covers the whole run (digest identity, an oracle) fails them all. *)
let outcome ~ops ~op_errors ~run_errors ~setup_s ~speeds metrics =
  {
    attempted = ops;
    failed = (if run_errors <> [] then ops else List.length op_errors);
    problems = run_errors @ op_errors;
    setup_s;
    reference_s = median speeds;
    metrics;
  }

let errors checked = List.filter_map (function Error e -> Some e | Ok _ -> None) checked

let digests_agree what digests =
  match digests with
  | [] -> []
  | d :: rest ->
      if List.for_all (String.equal d) rest then []
      else [ Printf.sprintf "%s digests differ across operations" what ]

(* ------------------------------------------------------------------ *)
(* fabric_place: cold sharded placement of a 10-rack, 400-chain fabric *)

let fabric_place ~seed ~seconds ~trace =
  let input = Inputs.fabric ~seed in
  let n_chains = float_of_int (List.length input.Inputs.demands) in
  let place () = Shard.place ~jobs:1 input.Inputs.shard_config input.Inputs.demands in
  let untraced () =
    Inputs.cold ();
    timed place
  in
  let traced () =
    let (outcome, t) = with_trace "bench.shard.place" place in
    let layers =
      placer_layers t @ [ ("shard.residual_s", self_s t "bench.shard.place") ]
    in
    (outcome, t.root.Telemetry.span_duration, layers)
  in
  let check outcome =
    match (outcome : Shard.outcome) with
    | Shard.Placed fp -> Ok fp
    | Shard.Infeasible { errors; _ } ->
        Error (String.concat "; " (List.map Shard.error_to_string errors))
  in
  let results, walls, speeds, layer_samples, traced_walls =
    if trace then
      let pairs, speeds = repeat ~seconds (fun () -> (untraced (), traced ())) in
      ( List.concat_map (fun ((o, _), (o', _, _)) -> [ o; o' ]) pairs,
        List.map (fun ((_, w), _) -> w) pairs,
        speeds,
        List.map (fun (_, (_, _, l)) -> l) pairs,
        List.map (fun (_, (_, w, _)) -> w) pairs )
    else
      let runs, speeds = repeat ~seconds untraced in
      (List.map fst runs, List.map snd runs, speeds, [], [])
  in
  let checked = List.map check results in
  let placed = List.filter_map Result.to_option checked in
  let run_errors =
    digests_agree "placement" (List.map Inputs.fabric_digest placed)
    @
    match placed with
    | [] -> []
    | fp :: _ -> (
        match Fabric_check.check fp with
        | Ok () -> []
        | Error vs ->
            [ Printf.sprintf "fabric oracle: %d violation(s), first: %s" (List.length vs)
                (Format.asprintf "%a" Fabric_check.pp_violation (List.hd vs)) ])
  in
  log_walls walls speeds;
  let setup_s = setup_time (fun () -> Inputs.fabric ~seed) in
  outcome ~ops:(List.length results) ~op_errors:(errors checked) ~run_errors ~setup_s ~speeds
    (if trace then
      median_layers layer_samples
      @ [ ("telemetry.overhead_ratio", ratio (median traced_walls) (median walls)) ]
    else
      let fp_metric f = match placed with fp :: _ -> f fp /. 1e9 | [] -> 0.0 in
      [
        ("latency_p50_ref", median (in_ref walls speeds));
        ("work_per_ref", rate ~work:n_chains (in_ref walls speeds));
        ("marginal_gbps", fp_metric (fun fp -> fp.Shard.total_marginal));
        ("delivered_gbps", fp_metric (fun fp -> fp.Shard.total_rate));
      ])

(* ------------------------------------------------------------------ *)
(* rack_online: the control loop over a 1000-event churn trace          *)

let rack_online ~seed ~seconds ~trace =
  let tr = Inputs.trace () in
  let cfg = Inputs.engine_config ~seed in
  let events = float_of_int (List.length tr.Trace.events) in
  let run () = Runtime.run cfg tr in
  let untraced () =
    Inputs.cold ();
    timed run
  in
  let traced () =
    let result, t = with_trace "bench.runtime.run" run in
    let wall = t.root.Telemetry.span_duration in
    let layers =
      match result with
      | Error _ -> None
      | Ok (report, _) ->
          let decide = sum report.Report.decision_latency_s in
          let decide_residual = decide -. incl_s t "placer.place" in
          let c = count t in
          Some
            (placer_layers t
            @ [
                ("dataplane.sim.runs", float_of_int
                   (Option.value (Hashtbl.find_opt t.spans "dataplane.sim.run") ~default:0));
                ("dataplane.sim.s", self_s t "dataplane.sim.run");
                ("runtime.reconfigs", c "runtime.reconfigs");
                ("runtime.replace.dirty", c "runtime.replace.dirty_chains");
                ("runtime.replace.clean", c "runtime.replace.clean_chains");
                ("runtime.replace.warm_starts", c "runtime.replace.warm_starts");
                ("runtime.decide_residual_s", decide_residual);
                ("runtime.loop_residual_s", self_s t "bench.runtime.run" -. decide_residual);
                ("runtime.violation_s", report.Report.total_violation_s);
              ])
    in
    (result, wall, layers)
  in
  let (runs, traced_runs), speeds =
    if trace then
      let pairs, speeds = repeat ~seconds (fun () -> (untraced (), traced ())) in
      (List.split pairs, speeds)
    else
      let runs, speeds = repeat ~seconds untraced in
      ((runs, []), speeds)
  in
  let all_results = List.map fst runs @ List.map (fun (r, _, _) -> r) traced_runs in
  let check = function
    | Error e -> Error (Runtime.error_to_string e)
    | Ok (report, _) -> (
        match report.Report.stop with
        | Report.Completed -> Ok report
        | Report.Aborted { at; reason } ->
            Error (Printf.sprintf "run aborted at %gs: %s" at reason))
  in
  let checked = List.map check all_results in
  let reports = List.filter_map Result.to_option checked in
  let run_errors =
    (if Option.is_none cfg.Runtime.check then [ "oracle hook is off" ] else [])
    @ digests_agree "report" (List.map Report.digest reports)
  in
  let untraced_walls = List.map snd runs in
  log_walls untraced_walls speeds;
  let setup_s = setup_time Inputs.trace in
  let untraced_reports =
    List.filter_map
      (fun (r, _) -> match r with Ok (rep, _) -> Some rep | Error _ -> None)
      runs
  in
  outcome ~ops:(List.length all_results) ~op_errors:(errors checked) ~run_errors ~setup_s ~speeds
    (if trace then
      (* The decision tail is a runtime-layer number: each untraced run's
         p99 (about ten of its thousand decisions lie beyond it), then the
         median over runs, so one stalled run does not set it. *)
      let run_p99s =
        List.filter_map
          (fun r ->
            match r.Report.decision_latency_s with
            | [] -> None
            | ds -> Some (1e3 *. p99 ds))
          untraced_reports
      in
      median_layers (List.filter_map (fun (_, _, l) -> l) traced_runs)
      @ [
          ("runtime.decide_p99_ms", if run_p99s = [] then 0.0 else median run_p99s);
          ( "telemetry.overhead_ratio",
            ratio (median (List.map (fun (_, w, _) -> w) traced_runs)) (median untraced_walls) );
        ]
    else
      let decisions =
        List.concat
          (List.map2
             (fun (r, _) speed ->
               match r with
               | Ok (rep, _) -> List.map (fun d -> d /. speed) rep.Report.decision_latency_s
               | Error _ -> [])
             runs speeds)
      in
      let per_horizon f =
        match untraced_reports with
        | r :: _ -> f r /. r.Report.horizon /. 1e9
        | [] -> 0.0
      in
      [
        ("latency_p50_ref", if decisions = [] then 0.0 else median decisions);
        ("work_per_ref", rate ~work:events (in_ref untraced_walls speeds));
        ("marginal_gbps", per_horizon (fun r -> r.Report.total_marginal_bits));
        ( "delivered_gbps",
          per_horizon (fun r ->
              sum (List.map (fun c -> c.Report.cc_delivered_bits) r.Report.chains)) );
      ])

(* ------------------------------------------------------------------ *)
(* packet_exec: the packet engine on a server-bound and a switch case   *)

let engine_run ~seed (c : Inputs.case) () =
  Dataplane.run ~seed ?offered:c.Inputs.offered ~config:c.Inputs.config
    ~placement:c.Inputs.placement ()

let injected (r : Dataplane.result) =
  List.fold_left (fun a (c : Dataplane.chain_result) -> a + c.Dataplane.injected_pkts) 0
    r.Dataplane.chains

(* Per-chain packet counters and delivered rates: the deterministic part
   of an engine result. *)
let engine_digest (r : Dataplane.result) =
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          (List.map
             (fun (c : Dataplane.chain_result) ->
               Printf.sprintf "%s=%h:%d/%d/%d/%d/%d" c.Dataplane.chain_id
                 c.Dataplane.delivered c.Dataplane.injected_pkts
                 c.Dataplane.delivered_pkts c.Dataplane.dropped_pkts
                 c.Dataplane.shaped_pkts c.Dataplane.in_flight_pkts)
             r.Dataplane.chains)))

(* Sum of max(0, delivered - t_min) over the case's chains. *)
let measured_marginal (c : Inputs.case) (r : Dataplane.result) =
  sum
    (List.map
       (fun (rep : Strategy.chain_report) ->
         let input = rep.Strategy.plan.Plan.input in
         match
           List.find_opt
             (fun (cr : Dataplane.chain_result) -> cr.Dataplane.chain_id = input.Plan.id)
             r.Dataplane.chains
         with
         | Some cr -> Lemur_slo.Slo.marginal input.Plan.slo cr.Dataplane.delivered
         | None -> 0.0)
       c.Inputs.placement.Strategy.chain_reports)

(* Share of injected packets on chains whose every NF is on the switch. *)
let offloaded_share (c : Inputs.case) (r : Dataplane.result) =
  let offloaded =
    List.filter_map
      (fun (rep : Strategy.chain_report) ->
        if Array.for_all (( = ) Plan.Switch) rep.Strategy.plan.Plan.locs then
          Some rep.Strategy.plan.Plan.input.Plan.id
        else None)
      c.Inputs.placement.Strategy.chain_reports
  in
  let pkts =
    List.fold_left
      (fun a (cr : Dataplane.chain_result) ->
        if List.mem cr.Dataplane.chain_id offloaded then a + cr.Dataplane.injected_pkts
        else a)
      0 r.Dataplane.chains
  in
  ratio (float_of_int pkts) (float_of_int (injected r))

let case_layers (c : Inputs.case) (r : Dataplane.result) wall =
  let pkts = float_of_int (injected r) and hops = float_of_int r.Dataplane.total_served in
  List.map
    (fun (m, v) -> (Printf.sprintf "dataplane.engine.%s.%s" c.Inputs.case_name m, v))
    [
      ("pkts", pkts);
      ("hops", hops);
      ("hops_per_pkt", ratio hops pkts);
      ("pkts_per_s", ratio pkts wall);
      ("hops_per_s", ratio hops wall);
      ("breaths", float_of_int r.Dataplane.breaths);
      ("offloaded_pkt_share", offloaded_share c r);
      ( "dropped_pkts",
        float_of_int
          (List.fold_left
             (fun a (cr : Dataplane.chain_result) -> a + cr.Dataplane.dropped_pkts)
             0 r.Dataplane.chains) );
      ("pool_exhausted", float_of_int r.Dataplane.pool_exhausted);
    ]

let packet_exec ~seed ~seconds ~trace =
  let cs = Inputs.packet_cases () in
  (* One round runs every case once; each call is timed on its own. *)
  let round () = List.map (fun c -> (c, timed (engine_run ~seed c))) cs in
  let traced_round () =
    List.map
      (fun (c : Inputs.case) ->
        let r, t = with_trace ("bench.engine." ^ c.Inputs.case_name) (engine_run ~seed c) in
        (c, (r, t.root.Telemetry.span_duration)))
      cs
  in
  let (rounds, traced_rounds), speeds =
    if trace then
      let pairs, speeds = repeat ~seconds (fun () -> (round (), traced_round ())) in
      (List.split pairs, speeds)
    else
      let rounds, speeds = repeat ~seconds round in
      ((rounds, []), speeds)
  in
  let round_wall rd = sum (List.map (fun (_, (_, w)) -> w) rd) in
  let all_rounds = rounds @ traced_rounds in
  let op_errors =
    List.filter_map
      (fun rd ->
        match List.filter (fun (_, (r, _)) -> not (Dataplane.conserved r)) rd with
        | [] -> None
        | bad ->
            Some
              (String.concat ", " (List.map (fun ((c : Inputs.case), _) -> c.Inputs.case_name) bad)
              ^ ": packets not conserved"))
      all_rounds
  in
  (* The rate-model cross-check runs once per case, outside the timing. *)
  let convergence =
    List.filter_map
      (fun (c : Inputs.case) ->
        let engine = engine_run ~seed c () in
        let sim =
          Sim.run ~seed ?offered:c.Inputs.offered ~config:c.Inputs.config
            ~placement:c.Inputs.placement ()
        in
        let v =
          Convergence.check ~pkt_bytes:c.Inputs.config.Plan.pkt_bytes ~engine ~sim ()
        in
        if Convergence.ok v then None
        else
          Some
            (Printf.sprintf "%s: engine diverges from Sim: %s" c.Inputs.case_name
               (String.concat "; "
                  (List.map (Format.asprintf "%a" Convergence.pp_divergence)
                     v.Convergence.divergences))))
      cs
  in
  let run_errors =
    convergence
    @ List.concat_map
        (fun (c : Inputs.case) ->
          digests_agree
            ("engine " ^ c.Inputs.case_name)
            (List.map
               (fun rd -> engine_digest (fst (List.assq c rd)))
               all_rounds))
        cs
  in
  let walls = List.map round_wall rounds in
  log_walls walls speeds;
  let setup_s = setup_time Inputs.packet_cases in
  outcome ~ops:(List.length all_rounds) ~op_errors ~run_errors ~setup_s ~speeds
    (if trace then
      (* Engine counts need no spans: they come from the untraced rounds'
         results, and the rates from their untraced wall times. *)
      median_layers
        (List.map (List.concat_map (fun (c, (r, w)) -> case_layers c r w)) rounds)
      @ [
          ( "telemetry.overhead_ratio",
            ratio (median (List.map round_wall traced_rounds)) (median walls) );
        ]
    else
      let first = List.hd rounds in
      let over f = sum (List.map (fun (c, (r, _)) -> f c r) first) in
      [
        ("latency_p50_ref", median (in_ref walls speeds));
        ( "work_per_ref",
          rate ~work:(over (fun _ r -> float_of_int (injected r))) (in_ref walls speeds) );
        ("marginal_gbps", over measured_marginal /. 1e9);
        ("delivered_gbps", over (fun _ r -> r.Dataplane.aggregate_throughput) /. 1e9);
      ])

(* ------------------------------------------------------------------ *)
(* Output                                                               *)

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_result ~trace (o : outcome) =
  let catalogue = if trace then per_layer else end_to_end in
  let measured =
    o.metrics
    @ [
        ("bench.reference_ms", 1e3 *. o.reference_s);
        ("setup_s", o.setup_s);
        ( "ok_ratio",
          ratio (float_of_int (o.attempted - o.failed)) (float_of_int o.attempted) );
        ("peak_heap_mb", !first_op_heap_mb);
      ]
  in
  (* Layers a workload does not exercise read 0. *)
  let values =
    List.map
      (fun (name, unit) ->
        (name, unit, Option.value (List.assoc_opt name measured) ~default:0.0))
      catalogue
  in
  List.iter (fun p -> Printf.eprintf "lemurbench: FAILED: %s\n" p) o.problems;
  List.iter (fun (name, unit, v) -> Printf.printf "%-40s %16.6f %s\n" name v unit) values;
  let correct =
    o.failed = 0 && o.problems = [] && List.for_all (fun (_, _, v) -> Float.is_finite v) values
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct o.attempted o.failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
              (json_float v) unit)
          values))

(* ------------------------------------------------------------------ *)
(* Self-test: the same seed gives byte-identical inputs and placements. *)

let selftest () =
  let failures = ref 0 in
  let expect what ok =
    Printf.printf "%-60s %s\n%!" what (if ok then "ok" else "FAILED");
    if not ok then incr failures
  in
  let fabric seed = Inputs.tenants_text (Inputs.fabric ~seed) in
  expect "tenant list and demand order repeat for a seed" (fabric 1 = fabric 1);
  expect "another seed shuffles the demand order" (fabric 1 <> fabric 2);
  expect "trace text repeats"
    (Trace.to_string (Inputs.trace ()) = Trace.to_string (Inputs.trace ()));
  let packet_digests () =
    List.map (fun c -> Inputs.placement_digest c.Inputs.placement) (Inputs.packet_cases ())
  in
  expect "packet_exec placement digests repeat" (packet_digests () = packet_digests ());
  let place seed =
    Inputs.cold ();
    let f = Inputs.fabric ~seed in
    match Shard.place ~jobs:1 f.Inputs.shard_config f.Inputs.demands with
    | Shard.Placed fp -> Some (Shard.digest fp, Inputs.fabric_digest fp)
    | Shard.Infeasible _ -> None
  in
  let a = place 1 and b = place 1 and c = place 2 in
  expect "fabric placement is feasible" (a <> None && c <> None);
  expect "fabric placement digest repeats for a seed" (a = b);
  expect "fabric placement does not depend on demand order"
    (Option.map snd a = Option.map snd c);
  if !failures > 0 then exit 1

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: lemurbench --workload fabric_place|rack_online|packet_exec --seed N \
     --seconds S --trace 0|1\n       lemurbench selftest";
  exit 2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "selftest" ] -> selftest ()
  | args ->
      let rec parse acc = function
        | [] -> acc
        | key :: v :: rest when String.starts_with ~prefix:"--" key ->
            parse ((key, v) :: acc) rest
        | _ -> usage ()
      in
      let opts = parse [] args in
      let get key conv =
        match Option.bind (List.assoc_opt key opts) conv with
        | Some v -> v
        | None -> usage ()
      in
      let workload = get "--workload" Option.some in
      let seed = get "--seed" int_of_string_opt in
      let seconds = get "--seconds" float_of_string_opt in
      let trace =
        get "--trace" (function "0" -> Some false | "1" -> Some true | _ -> None)
      in
      let run =
        match workload with
        | "fabric_place" -> fabric_place
        | "rack_online" -> rack_online
        | "packet_exec" -> packet_exec
        | _ -> usage ()
      in
      Lemur_util.Pool.set_default 1;
      Printf.printf "lemurbench %s seed %d, %gs, trace %b; jobs 1, %d domain(s) available, OCaml %s\n%!"
        workload seed seconds trace
        (Domain.recommended_domain_count ())
        Sys.ocaml_version;
      print_result ~trace (run ~seed ~seconds ~trace)
