open Lemur_placer
module Tm = Lemur_telemetry.Telemetry
module Schedule = Lemur.Dynamics.Schedule

type config = {
  policy : Policy.t;
  seed : int;
  sample : float;
  check : (Lemur.Deployment.t -> (unit, string) result) option;
  incremental : bool;
  move_budget : int option;
}

let default_config ?(policy = Policy.Immediate) ?(seed = 11) ?(sample = 1e7)
    ?check ?(incremental = true) ?move_budget () =
  { policy; seed; sample; check; incremental; move_budget }

type error =
  | Trace_invalid of string
  | Initial_infeasible of string
  | Oracle_rejected of { at : float; reason : string }

let error_to_string = function
  | Trace_invalid e -> "invalid trace: " ^ e
  | Initial_infeasible e -> "initial placement infeasible: " ^ e
  | Oracle_rejected { at; reason } ->
      Printf.sprintf "oracle rejected deployment at %.3fs: %s" at reason

exception Abort_run of { at : float; reason : string }
exception Oracle_fail of { at : float; reason : string }

(* Per-chain controller model: the contract is what the operator signed,
   the demand is the last observed offered rate. The deployed SLO is
   derived from both (plus the active window) at each re-placement. *)
type chain_state = {
  graph : Lemur_spec.Graph.t;
  mutable contract : Lemur_slo.Slo.t;
  mutable demand : float option;
  forecaster : Forecast.t option;  (** Some only under [Policy.Proactive] *)
}

(* Telemetry handles plus the decision-latency samples and the dirty-set
   memory: everything the loop measures but never decides on. *)
type meters = {
  c_events : Lemur_telemetry.Counter.t;
  c_rejected : Lemur_telemetry.Counter.t;
  c_reconfigs : Lemur_telemetry.Counter.t;
  c_epochs : Lemur_telemetry.Counter.t;
  c_violations : Lemur_telemetry.Counter.t;
  c_deploy_errors : Lemur_telemetry.Counter.t;
  c_dirty_chains : Lemur_telemetry.Counter.t;
  c_clean_chains : Lemur_telemetry.Counter.t;
  c_warm_starts : Lemur_telemetry.Counter.t;
  c_moves : Lemur_telemetry.Counter.t;
  c_moves_capped : Lemur_telemetry.Counter.t;
  h_decision : Lemur_telemetry.Histogram.t;
  mutable latencies : float list;  (** newest first *)
  mutable last_solved :
    (Plan.config * (string * Lemur_spec.Graph.t * float) list) option;
}

let meters () =
  let tele = Tm.current () in
  let c name = Tm.counter tele name in
  {
    c_events = c "runtime.events";
    c_rejected = c "runtime.events.rejected";
    c_reconfigs = c "runtime.reconfigs";
    c_epochs = c "runtime.epochs";
    c_violations = c "runtime.violations";
    c_deploy_errors = c "runtime.deploy_errors";
    c_dirty_chains = c "runtime.replace.dirty_chains";
    c_clean_chains = c "runtime.replace.clean_chains";
    c_warm_starts = c "runtime.replace.warm_starts";
    c_moves = c "runtime.replace.moves";
    c_moves_capped = c "runtime.replace.moves_capped";
    h_decision = Tm.histogram tele "runtime.decision_latency_ns";
    latencies = [];
    last_solved = None;
  }

(* The controller: its chain/rack model, the live deployment and the
   report accumulators. [config.topology] is always [pristine] degraded
   by [failed]. *)
type state = {
  cfg : config;
  trace : Trace.t;
  pristine : Lemur_topology.Topology.t;
  prng : Lemur_util.Prng.t;
  pstate : Policy.state;
  m : meters;
  mutable chains : (string * chain_state) list;
  mutable config : Plan.config;
  mutable failed : Lemur.Failover.failure list;  (** newest first *)
  mutable window : string option;
  mutable schedule : Schedule.t option;
  mutable deployment : Lemur.Deployment.t;
  mutable now : float;
  mutable journal : Report.journal_entry list;
      (** newest first; the report's counts are tallied from it *)
  mutable epochs : int;
  compliance : (string, Report.chain_compliance) Hashtbl.t;
      (** integrals so far, per chain ever sampled *)
}

(* Does the current placement put anything on the failed element? If
   not, the deployment keeps operating and re-placement is deferrable. *)
let failure_used (d : Lemur.Deployment.t) topo failure =
  let reports = d.Lemur.Deployment.placement.Strategy.chain_reports in
  let any p = List.exists p reports in
  let uses_smartnic =
    any (fun r -> r.Strategy.plan.Plan.smartnic_nodes <> [])
  in
  match failure with
  | Lemur.Failover.Pisa_failed ->
      any (fun r ->
          Array.exists (fun l -> l = Plan.Switch) r.Strategy.plan.Plan.locs)
  | Lemur.Failover.Smartnic_failed -> uses_smartnic
  | Lemur.Failover.Ofswitch_failed ->
      any (fun r -> r.Strategy.plan.Plan.ofswitch_nodes <> [])
  | Lemur.Failover.Server_failed name ->
      any (fun r ->
          List.exists (fun (_, s) -> String.equal s name) r.Strategy.seg_server)
      || uses_smartnic
         && List.exists
              (fun n -> String.equal n.Lemur_platform.Smartnic.host name)
              topo.Lemur_topology.Topology.smartnics

let chain_report (d : Lemur.Deployment.t) id =
  List.find_opt
    (fun (r : Strategy.chain_report) ->
      String.equal r.Strategy.plan.Plan.input.Plan.id id)
    d.Lemur.Deployment.placement.Strategy.chain_reports

(* What the orchestration layer would have to migrate between two
   deployments: a chain "moves" when it exists in both and its placement
   signature — node locations plus segment-to-server homes — changed.
   Added/removed chains are not moves (there is nothing to migrate). *)
let moved_chains ~before ~(after : Lemur.Deployment.t) =
  let signature (r : Strategy.chain_report) =
    (r.Strategy.plan.Plan.locs, r.Strategy.seg_server)
  in
  List.filter_map
    (fun (r : Strategy.chain_report) ->
      let id = r.Strategy.plan.Plan.input.Plan.id in
      match chain_report before id with
      | Some r0 when signature r0 <> signature r -> Some id
      | _ -> None)
    after.Lemur.Deployment.placement.Strategy.chain_reports

(* The rack with [failed] applied, oldest failure first, rebuilt from the
   pristine one so that recovery order never matters. *)
let degraded pristine failed =
  List.fold_left
    (fun acc f -> Result.bind acc (fun t -> Lemur.Failover.degrade t f))
    (Ok pristine) (List.rev failed)

(* Decision machinery: everything inside [timed] is controller latency. *)

(* A placement call must never kill the trace: an escaped exception
   (a solver bug exposed mid-flight) is demoted to an [Error], which
   the caller then treats exactly like an infeasible placement —
   mandatory triggers abort the run legally, deferrable ones journal
   the failure and keep operating the current deployment. *)
let guarded m f =
  match f () with
  | r -> r
  | exception ((Abort_run _ | Oracle_fail _) as e) -> raise e
  | exception exn ->
      Lemur_telemetry.Counter.incr m.c_deploy_errors;
      Error ("placement crashed: " ^ Printexc.to_string exn)

let timed m f =
  let t0 = Lemur_util.Timing.now () in
  let r = f () in
  let dt = Lemur_util.Timing.elapsed t0 in
  m.latencies <- dt :: m.latencies;
  Lemur_telemetry.Histogram.record m.h_decision (dt *. 1e9);
  r

(* With [incremental] off every placement starts cold: the memo
   tables and the variant cache are dropped inside the timed
   section, so the decision latency pays for recomputing what the
   incremental path would have reused. This is the from-scratch
   baseline the runtime bench compares against; verdicts are
   unaffected either way because cache hits are byte-identical to
   recomputation. *)
let fresh cfg =
  if not cfg.incremental then begin
    Memo.clear ();
    Strategy.clear_variant_cache ()
  end

(* Dirty-set bookkeeping: a chain is dirty when its structural
   solve key — (graph, t_min) under the current config — differs
   from the last solved placement's; demand events only move
   t_max, so they leave every chain clean and the variant cache
   serves the whole pattern search as a warm start. *)
let note_dirty m config (inputs : Plan.chain_input list) =
  let keys0 =
    match m.last_solved with
    | Some (config0, keys0) when config0 == config -> keys0
    | _ -> []
  in
  let keys =
    List.map
      (fun (i : Plan.chain_input) ->
        (i.Plan.id, i.Plan.graph, i.Plan.slo.Lemur_slo.Slo.t_min))
      inputs
  in
  List.iter
    (fun (id, g, t) ->
      match List.find_opt (fun (id0, _, _) -> String.equal id0 id) keys0 with
      | Some (_, g0, t0) when g0 == g && t0 = t ->
          Lemur_telemetry.Counter.incr m.c_clean_chains
      | _ -> Lemur_telemetry.Counter.incr m.c_dirty_chains)
    keys;
  m.last_solved <- Some (config, keys)

(* One timed placement of the chain set [inputs ()] builds. *)
let solve m cfg config inputs =
  timed m (fun () ->
      fresh cfg;
      let inputs = inputs () in
      note_dirty m config inputs;
      Result.map
        (fun d -> (d, inputs))
        (guarded m (fun () -> Lemur.Deployment.deploy config inputs)))

(* Controller model *)

let journal st e = st.journal <- e :: st.journal

(* A chain's demand a horizon ahead, inflated by the headroom; only
   under a proactive policy, once its forecaster has a trend. *)
let forecast st c =
  match (st.cfg.policy, c.forecaster) with
  | Policy.Proactive { horizon_s; headroom; _ }, Some f
    when Forecast.observations f >= 2 ->
      Some (Forecast.predict f ~horizon_s *. (1.0 +. headroom))
  | _ -> None

(* The SLO a chain is placed with: its window override or contract,
   with the burst ceiling capped at the demand it actually sees. *)
let effective_slo st id c =
  let override =
    Option.bind st.window (fun w -> List.assoc_opt w st.trace.Trace.windows)
  in
  let slo =
    Option.value ~default:c.contract (Option.bind override (List.assoc_opt id))
  in
  match c.demand with
  | None -> slo
  | Some r ->
      (* Under a proactive policy the cap provisions for where demand
         is headed, not just where it was last seen. *)
      let r =
        match forecast st c with Some rhat -> Float.max r rhat | None -> r
      in
      (* never below t_min (the contract stands), never a degenerate 0
         ceiling when the chain idles *)
      let cap = Float.max 1e6 (Float.max r slo.Lemur_slo.Slo.t_min) in
      { slo with Lemur_slo.Slo.t_max = Float.min slo.Lemur_slo.Slo.t_max cap }

let inputs st slo =
  List.map
    (fun (id, c) -> { Plan.id; graph = c.graph; slo = slo id c })
    st.chains

let new_chain policy (i : Plan.chain_input) =
  let forecaster =
    match policy with
    | Policy.Proactive { model; _ } -> Some (Forecast.create model)
    | _ -> None
  in
  ( i.Plan.id,
    { graph = i.Plan.graph; contract = i.Plan.slo; demand = None; forecaster } )

let oracle st at (d : Lemur.Deployment.t) =
  Option.iter
    (fun check ->
      match check d with
      | Ok () -> ()
      | Error reason -> raise (Oracle_fail { at; reason })
      | exception exn ->
          (* A crashing hook cannot vouch for the deployment: treat it
             as a rejection, not a process abort. *)
          Lemur_telemetry.Counter.incr st.m.c_deploy_errors;
          raise
            (Oracle_fail
               { at; reason = "check hook raised: " ^ Printexc.to_string exn }))
    st.cfg.check

(* Proactive alarm: does any chain's forecast exceed what the live
   deployment allocated to it (within the monitor's tolerance)? If so
   the monitor is about to start charging violation-seconds — act now,
   before an epoch observes the shortfall. *)
let forecast_alarm st =
  List.exists
    (fun (id, c) ->
      match forecast st c with
      | None -> false
      | Some rhat -> (
          match chain_report st.deployment id with
          | Some r -> rhat *. Monitor.tolerance > r.Strategy.rate
          | None -> rhat > 0.0))
    st.chains

(* The model update for one event: the trigger and journal reason of
   the re-placement it asks for, or why the model rejects it. *)
let apply_event st at action =
  let with_chain id k =
    match List.assoc_opt id st.chains with
    | None -> Error (Printf.sprintf "unknown chain %S" id)
    | Some c -> k c
  in
  (* Re-derive the rack for a new failed list; on [Error] the model is
     left untouched. *)
  let set_failed failed =
    Result.map
      (fun topo ->
        st.failed <- failed;
        st.config <- { st.config with Plan.topology = topo })
      (degraded st.pristine failed)
  in
  match action with
  | Trace.Traffic { chain_id; rate } ->
      with_chain chain_id (fun c ->
          c.demand <- Some rate;
          Option.iter (fun f -> Forecast.observe f ~at rate) c.forecaster;
          if forecast_alarm st then Ok (Policy.Forecast, "forecast")
          else Ok (Policy.Traffic_shift, "traffic-shift"))
  | Trace.Set_slo { chain_id; slo } ->
      with_chain chain_id (fun c ->
          c.contract <- slo;
          Ok (Policy.Structural, "slo-change"))
  | Trace.Add_chain { decl } -> (
      match Trace.parse_chain_decl decl with
      | Error e -> Error e
      | Ok input when List.mem_assoc input.Plan.id st.chains ->
          Error (Printf.sprintf "chain %S already deployed" input.Plan.id)
      | Ok input ->
          st.chains <- st.chains @ [ new_chain st.cfg.policy input ];
          Ok (Policy.Mandatory, "chain-added"))
  | Trace.Remove_chain id ->
      with_chain id (fun _ ->
          if List.length st.chains = 1 then Error "cannot remove the last chain"
          else begin
            st.chains <- List.remove_assoc id st.chains;
            Ok (Policy.Mandatory, "chain-removed")
          end)
  | Trace.Fail f ->
      let trigger =
        if failure_used st.deployment st.config.Plan.topology f then
          Policy.Mandatory
        else Policy.Structural
      in
      set_failed (f :: st.failed) |> Result.map (fun () -> (trigger, "failure"))
  | Trace.Recover f ->
      if not (List.mem f st.failed) then Error "element is not failed"
      else
        set_failed (List.filter (fun g -> g <> f) st.failed)
        |> Result.map (fun () -> (Policy.Structural, "recovery"))
        |> Result.map_error (fun e -> "cannot restore rack: " ^ e)
  | Trace.Window label ->
      if not (List.mem_assoc label st.trace.Trace.windows) then
        Error (Printf.sprintf "unknown window %S" label)
      else begin
        st.window <- Some label;
        Ok (Policy.Structural, "window")
      end

(* Reconfiguration *)

(* Make [d] the live deployment: it must pass the oracle hook first. *)
let adopt st at reason ~capped ~exempt (d : Lemur.Deployment.t) =
  oracle st at d;
  let moves = List.length (moved_chains ~before:st.deployment ~after:d) in
  st.deployment <- d;
  Lemur_telemetry.Counter.incr st.m.c_reconfigs;
  Lemur_telemetry.Counter.incr ~by:moves st.m.c_moves;
  if capped then Lemur_telemetry.Counter.incr st.m.c_moves_capped;
  let placement = d.Lemur.Deployment.placement in
  journal st
    (Report.Reconfigured
       {
         at;
         reason;
         chains = List.length placement.Strategy.chain_reports;
         predicted_rate = placement.Strategy.total_rate;
         moves;
         capped;
         exempt;
       });
  Policy.note_reconfig st.pstate ~now:at

(* Move-budgeted hybrid: keep at most [budget] of the moves the
   unconstrained placement wanted — the structurally dirty chains
   first, then the largest allocation swings — and freeze every other
   mover at its old locations (re-elaborated under the current config
   and SLOs), then redo core allocation + rate LP over the mixed plan
   set. *)
let hybrid_deployment st ~proposed ~moved ~budget inputs =
  let before = st.deployment in
  let structurally_dirty id =
    let input (i : Plan.chain_input) = String.equal i.Plan.id id in
    match (chain_report before id, List.find_opt input inputs) with
    | Some r0, Some i ->
        let i0 = r0.Strategy.plan.Plan.input in
        (not (i0.Plan.graph == i.Plan.graph))
        || i0.Plan.slo.Lemur_slo.Slo.t_min <> i.Plan.slo.Lemur_slo.Slo.t_min
    | _ -> true
  in
  let rate_delta id =
    match (chain_report before id, chain_report proposed id) with
    | Some a, Some b -> Float.abs (b.Strategy.rate -. a.Strategy.rate)
    | _ -> infinity
  in
  let value id = (structurally_dirty id, rate_delta id) in
  let ranked =
    List.sort
      (fun a b ->
        match compare (value b) (value a) with 0 -> String.compare a b | c -> c)
      moved
  in
  let frozen = List.filteri (fun i _ -> i >= budget) ranked in
  let plan_of (i : Plan.chain_input) =
    if List.mem i.Plan.id frozen then
      match chain_report before i.Plan.id with
      | Some r0 -> Plan.elaborate st.config i r0.Strategy.plan.Plan.locs
      | None -> failwith ("no old placement for " ^ i.Plan.id)
    else
      match chain_report proposed i.Plan.id with
      | Some r -> r.Strategy.plan
      | None -> failwith ("no proposed placement for " ^ i.Plan.id)
  in
  match List.map plan_of inputs with
  | exception exn ->
      Error
        ("frozen chains cannot keep their placement: " ^ Printexc.to_string exn)
  | plans -> (
      match Strategy.evaluate_plans Strategy.Lemur st.config plans with
      | Strategy.Placed best -> Lemur.Deployment.of_placement st.config best
      | Strategy.Infeasible _ ->
          Error
            "no feasible core/rate allocation keeps the frozen chains in place")

let reconfigure st ~at ~mandatory ~reason =
  let vc_hits0 = fst (Strategy.variant_cache_stats ()) in
  let result =
    solve st.m st.cfg st.config (fun () -> inputs st (effective_slo st))
  in
  if fst (Strategy.variant_cache_stats ()) > vc_hits0 then
    Lemur_telemetry.Counter.incr st.m.c_warm_starts;
  let infeasible reason = journal st (Report.Infeasible { at; reason }) in
  match result with
  | Error e when mandatory ->
      raise (Abort_run { at; reason = Printf.sprintf "%s: %s" reason e })
  | Error e -> infeasible (reason ^ ": " ^ e)
  | Ok (d, inputs) -> (
      let moved = moved_chains ~before:st.deployment ~after:d in
      match st.cfg.move_budget with
      | Some budget when (not mandatory) && List.length moved > budget -> (
          match
            guarded st.m (fun () ->
                hybrid_deployment st ~proposed:d ~moved ~budget inputs)
          with
          | Ok d' ->
              let moves' =
                List.length (moved_chains ~before:st.deployment ~after:d')
              in
              if moves' <= budget then
                adopt st at reason ~capped:true ~exempt:false d'
              else
                infeasible
                  (Printf.sprintf
                     "%s: move budget %d exceeded (hybrid still moves %d)"
                     reason budget moves')
          | Error e ->
              infeasible
                (Printf.sprintf
                   "%s: move budget %d exceeded (%d moves wanted; %s)" reason
                   budget (List.length moved) e))
      | _ -> adopt st at reason ~capped:false ~exempt:mandatory d)

let consider st ~at ~trigger ~reason =
  if Policy.decide st.cfg.policy st.pstate ~now:at trigger then
    reconfigure st ~at ~mandatory:(trigger = Policy.Mandatory) ~reason
  else
    journal st (Report.Deferred { at; trigger = Policy.trigger_name trigger })

(* Install a precomputed per-window placement (§7 time-varying SLOs) —
   the Scheduled policy's only voluntary reconfiguration path. *)
let install_window st ~at label =
  let sched =
    match st.schedule with
    | Some s -> Ok s
    | None ->
        let s =
          timed st.m (fun () ->
              fresh st.cfg;
              guarded st.m (fun () ->
                  Schedule.precompute st.config
                    (inputs st (fun _ c -> c.contract))
                    (List.map
                       (fun (label, slos) -> { Schedule.label; slos })
                       st.trace.Trace.windows)))
        in
        Result.iter (fun s -> st.schedule <- Some s) s;
        s
  in
  match Result.map (fun s -> Schedule.deployment s label) sched with
  | Error e -> journal st (Report.Infeasible { at; reason = "schedule: " ^ e })
  | Ok None ->
      journal st
        (Report.Infeasible
           { at; reason = Printf.sprintf "window %s not in schedule" label })
  | Ok (Some d) -> adopt st at "window-install" ~capped:false ~exempt:true d

(* One event: update the model, then either journal the rejection or
   act on the trigger it produced. *)
let handle st at action =
  let what = Format.asprintf "%a" Trace.pp_action action in
  match apply_event st at action with
  | Error reason ->
      Lemur_telemetry.Counter.incr st.m.c_rejected;
      journal st (Report.Rejected { at; what; reason })
  | Ok (trigger, reason) -> (
      (* the schedule is precomputed from the contracts and the rack *)
      (match action with
      | Trace.Traffic _ | Trace.Window _ -> ()
      | _ -> st.schedule <- None);
      Lemur_telemetry.Counter.incr st.m.c_events;
      journal st (Report.Applied { at; what });
      match (action, st.cfg.policy) with
      | Trace.Window label, Policy.Scheduled -> install_window st ~at label
      | _ -> consider st ~at ~trigger ~reason)

(* Measurement *)

(* Sample the epoch [now, until) once, integrate each chain's verdict
   over its length, and move the clock to [until]. *)
let sample_epoch st until =
  let len = until -. st.now in
  if len > 1e-12 then begin
    let seed = Lemur_util.Prng.int st.prng 0x3FFFFFFF in
    let demand =
      List.filter_map
        (fun (id, c) -> Option.map (fun r -> (id, r)) c.demand)
        st.chains
    in
    let ep =
      Monitor.observe ~seed ~sample:st.cfg.sample ~demand ~start:st.now ~len
        st.deployment
    in
    st.epochs <- st.epochs + 1;
    Lemur_telemetry.Counter.incr st.m.c_epochs;
    List.iter
      (fun (o : Monitor.chain_obs) ->
        let id = o.Monitor.co_id in
        (* seconds charged to a violation of [kind] *)
        let charged violated kind =
          if not violated then 0.0
          else begin
            Lemur_telemetry.Counter.incr st.m.c_violations;
            journal st
              (Report.Violation
                 { at = st.now; chain = id; kind; seconds = len });
            len
          end
        in
        let thr = charged o.Monitor.co_throughput_violated "throughput" in
        let lat = charged o.Monitor.co_latency_violated "latency" in
        let c =
          Option.value (Hashtbl.find_opt st.compliance id)
            ~default:
              {
                Report.cc_id = id;
                cc_throughput_violation_s = 0.0;
                cc_latency_violation_s = 0.0;
                cc_marginal_bits = 0.0;
                cc_delivered_bits = 0.0;
              }
        in
        Hashtbl.replace st.compliance id
          {
            c with
            Report.cc_throughput_violation_s =
              c.Report.cc_throughput_violation_s +. thr;
            cc_latency_violation_s = c.Report.cc_latency_violation_s +. lat;
            cc_marginal_bits =
              c.Report.cc_marginal_bits +. (o.Monitor.co_marginal *. len);
            cc_delivered_bits =
              c.Report.cc_delivered_bits +. (o.Monitor.co_delivered *. len);
          })
      ep.Monitor.ep_obs;
    Policy.note_violation st.pstate ~now:until (Monitor.violation_seconds ep)
  end;
  st.now <- until

(* Report *)

let finish st stop =
  let by_id f l = List.sort (fun a b -> String.compare (f a) (f b)) l in
  let chains =
    Hashtbl.fold (fun _ c l -> c :: l) st.compliance []
    |> by_id (fun c -> c.Report.cc_id)
  in
  let sum f = List.fold_left f 0.0 chains in
  let journal = List.rev st.journal in
  let applied = ref 0 and rejected = ref 0 and capped = ref 0 in
  let moves_total = ref 0 and reasons = ref [] in
  List.iter
    (function
      | Report.Applied _ -> incr applied
      | Report.Rejected _ -> incr rejected
      | Report.Reconfigured r ->
          if r.capped then incr capped;
          if not r.exempt then moves_total := !moves_total + r.moves;
          reasons := r.reason :: !reasons
      | _ -> ())
    journal;
  {
    Report.policy = Policy.to_string st.cfg.policy;
    seed = st.cfg.seed;
    horizon = st.trace.Trace.horizon;
    events_applied = !applied;
    events_rejected = !rejected;
    epochs = st.epochs;
    reconfigs = List.length !reasons;
    reconfig_reasons =
      List.sort_uniq String.compare !reasons
      |> List.map (fun r ->
             (r, List.length (List.filter (String.equal r) !reasons)));
    chains;
    total_violation_s =
      sum (fun s c ->
          s +. c.Report.cc_throughput_violation_s
          +. c.Report.cc_latency_violation_s);
    total_marginal_bits = sum (fun s c -> s +. c.Report.cc_marginal_bits);
    moves_total = !moves_total;
    moves_capped = !capped;
    forecast_mae =
      List.filter_map
        (fun (id, c) ->
          match c.forecaster with
          | Some f when Forecast.observations f >= 2 ->
              Some (id, Forecast.mean_abs_error f)
          | _ -> None)
        st.chains
      |> by_id fst;
    decision_latency_s = List.rev st.m.latencies;
    journal;
    stop;
  }

let run cfg (trace : Trace.t) =
  match Trace.initial_inputs trace with
  | Error e -> Error (Trace_invalid e)
  | Ok inputs0 -> (
      let m = meters () in
      let config = Trace.config trace in
      match solve m cfg config (fun () -> inputs0) with
      | Error e -> Error (Initial_infeasible e)
      | Ok (d0, _) -> (
          let st =
            {
              cfg;
              trace;
              pristine = config.Plan.topology;
              prng = Lemur_util.Prng.create ~seed:cfg.seed;
              pstate = Policy.initial_state ();
              m;
              chains = List.map (new_chain cfg.policy) inputs0;
              config;
              failed = [];
              window = None;
              schedule = None;
              deployment = d0;
              now = 0.0;
              journal = [];
              epochs = 0;
              compliance = Hashtbl.create 7;
            }
          in
          match
            oracle st 0.0 d0;
            List.iter
              (fun (ev : Trace.event) ->
                sample_epoch st ev.Trace.at;
                handle st ev.Trace.at ev.Trace.action)
              trace.Trace.events;
            sample_epoch st trace.Trace.horizon
          with
          | () -> Ok (finish st Report.Completed, st.deployment)
          | exception Abort_run { at; reason } ->
              journal st (Report.Infeasible { at; reason });
              Ok (finish st (Report.Aborted { at; reason }), st.deployment)
          | exception Oracle_fail { at; reason } ->
              Error (Oracle_rejected { at; reason })))
