(* The benchmark's inputs, generated from the workload seed.

   Each workload is a fixed reference scenario plus a seed-driven
   variation that must not change any deterministic output:

   - fabric_place: the reference tenant population (synthetic_tenants at
     tenant seed 1: 20 tenants, 400 chains over 10 racks), handed to
     Shard.place as a seed-shuffled demand list. The partition sorts
     demands itself, so the placement content must not depend on the
     order; the canonical digest below checks exactly that.
   - rack_online: the reference churn trace (trace seed 1, 1000 events);
     the seed is the control loop's epoch-sampling seed.
   - packet_exec: two fixed placements; the seed is the packet engine's
     generator seed.

   The scenarios are fixed because re-drawing them per seed moves the
   end-to-end numbers far beyond any regression bound: over tenant
   seeds 1-8 one cold placement took 2.3-3.4 s and its marginal
   throughput ranged 2.4-6.2 Tbps, and over churn-trace seeds 1-6 the
   median decision ranged 0.95-1.7 ms. *)

module Fabric = Lemur_topology.Fabric
module Topology = Lemur_topology.Topology
module Shard = Lemur_placer.Shard
module Strategy = Lemur_placer.Strategy
module Plan = Lemur_placer.Plan
module Memo = Lemur_placer.Memo
module Trace = Lemur_runtime.Trace
module Prng = Lemur_util.Prng

let cold () =
  Memo.clear ();
  Strategy.clear_variant_cache ()

(* ------------------------------------------------------------------ *)
(* fabric_place                                                         *)

let fabric_racks = 10
let fabric_tenants = 20
let fabric_chains = 400
let tenant_seed = 1

type fabric = {
  tenants : Fabric.tenant list;
  demands : Fabric.demand list;  (** seed-shuffled *)
  shard_config : Shard.config;
}

let fabric ~seed =
  let fab = Fabric.synthetic ~racks:fabric_racks () in
  let tenants =
    Fabric.synthetic_tenants ~seed:tenant_seed ~tenants:fabric_tenants
      ~chains:fabric_chains fab
  in
  let demands = Array.of_list (Fabric.expand tenants) in
  Prng.shuffle (Prng.create ~seed) demands;
  { tenants; demands = Array.to_list demands; shard_config = Shard.default_config fab }

(* The tenant list and the demand order, rendered exactly. *)
let tenants_text f =
  let tenant (t : Fabric.tenant) =
    Printf.sprintf "T|%s|%d|%h|%d|%s|%s|%b|%h|%s\n" t.Fabric.tn_name
      t.Fabric.tn_subscribers t.Fabric.tn_rate_per_sub t.Fabric.tn_chains
      t.Fabric.tn_spec
      (Option.value t.Fabric.tn_home ~default:"-")
      t.Fabric.tn_pinned t.Fabric.tn_tmax
      (match t.Fabric.tn_dmax with Some d -> Printf.sprintf "%h" d | None -> "-")
  in
  String.concat "" (List.map tenant f.tenants)
  ^ String.concat ","
      (List.map (fun (d : Fabric.demand) -> d.Fabric.d_id) f.demands)

(* Shard.digest hashes assignments in demand input order; sorting them
   by demand id first makes the digest a function of the placement
   alone, so it must agree across every shuffle. *)
let fabric_digest (fp : Shard.fabric_placement) =
  let by_id (a : Shard.assignment) (b : Shard.assignment) =
    String.compare a.Shard.a_demand.Fabric.d_id b.Shard.a_demand.Fabric.d_id
  in
  Shard.digest { fp with Shard.assignments = List.sort by_id fp.Shard.assignments }

(* ------------------------------------------------------------------ *)
(* rack_online                                                          *)

let trace_seed = 1
let trace_events = 1000

let trace () =
  Trace.generate ~events:trace_events ~kind:Trace.Churn ~seed:trace_seed ()

(* The `lemur run --trace-seed` defaults: immediate policy, incremental
   re-placement, oracle hook on. *)
let engine_config ~seed =
  Lemur_runtime.Engine.default_config ~policy:Lemur_runtime.Policy.Immediate
    ~seed ~check:Lemur_check.Runtime_check.checker ~incremental:true ()

(* ------------------------------------------------------------------ *)
(* packet_exec                                                          *)

type case = {
  case_name : string;
  config : Plan.config;
  placement : Strategy.placement;
  offered : (string * float) list option;
}

let place config inputs =
  match Strategy.place Strategy.Lemur config inputs with
  | Strategy.Placed p -> p
  | Strategy.Infeasible { reason } -> failwith ("packet_exec set-up: " ^ reason)

(* Server-bound: the Fig. 2 chains {1,2,3,4} at delta 1.0, 64 B packets. *)
let server_case topo =
  let config = { (Plan.default_config topo) with Plan.pkt_bytes = 64 } in
  let inputs = Lemur.Chains.inputs_for_delta config ~delta:1.0 [ 1; 2; 3; 4 ] in
  { case_name = "server"; config; placement = place config inputs; offered = None }

(* Switch-only: every NF on the PISA switch, 1500 B packets offered at
   the ToR port rate, so every packet makes zero server hops. *)
let switch_case topo =
  let config = Plan.default_config topo in
  let input =
    match Trace.parse_chain_decl "sw slo(tmin='10Gbps') = ACL -> IPv4Fwd" with
    | Ok i -> i
    | Error e -> failwith ("packet_exec set-up: " ^ e)
  in
  let placement = place config [ input ] in
  let on_switch (r : Strategy.chain_report) =
    Array.for_all (fun l -> l = Plan.Switch) r.Strategy.plan.Plan.locs
  in
  if not (List.for_all on_switch placement.Strategy.chain_reports) then
    failwith "packet_exec set-up: switch case not fully offloaded";
  let port = topo.Topology.tor.Lemur_platform.Pisa.port_capacity in
  { case_name = "switch"; config; placement; offered = Some [ (input.Plan.id, port) ] }

let packet_cases () =
  cold ();
  let topo = Topology.testbed () in
  [ server_case topo; switch_case topo ]

let placement_digest (p : Strategy.placement) =
  let report (r : Strategy.chain_report) =
    Printf.sprintf "%s|%s|%s|%h|%h|%h\n"
      (Memo.plan_sig r.Strategy.plan)
      (String.concat "," (Array.to_list (Array.map string_of_int r.Strategy.cores)))
      (String.concat ","
         (List.map (fun (sg, s) -> Printf.sprintf "%d=%s" sg s) r.Strategy.seg_server))
      r.Strategy.capacity r.Strategy.rate r.Strategy.latency
  in
  Digest.to_hex
    (Digest.string (String.concat "" (List.map report p.Strategy.chain_reports)))
