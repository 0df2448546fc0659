type table = {
  table_name : string;
  owner : string;
  match_fields : string list;
  action : string;
  entries_hint : int;
}

(* Each node keeps its edges newest first, the order [predecessors] and
   [successors] return, so both are O(1) and a compile that walks the
   graph stays linear in tables plus edges. *)
type node = {
  table : table;
  mutable preds : string list;
  mutable succs : string list;
}

type t = {
  nodes : (string, node) Hashtbl.t;
  mutable table_list : table list; (* reversed *)
  mutable dep_list : (string * string) list; (* (before, after), reversed *)
}

let create () = { nodes = Hashtbl.create 16; table_list = []; dep_list = [] }

let find t name =
  Option.map (fun n -> n.table) (Hashtbl.find_opt t.nodes name)

let add_table t table =
  if Hashtbl.mem t.nodes table.table_name then
    invalid_arg
      (Printf.sprintf "Tablegraph.add_table: duplicate table %S" table.table_name);
  Hashtbl.replace t.nodes table.table_name { table; preds = []; succs = [] };
  t.table_list <- table :: t.table_list

let dep_end t name =
  match Hashtbl.find_opt t.nodes name with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Tablegraph.add_dep: unknown table %S" name)

let add_dep t ~before ~after =
  if String.equal before after then
    invalid_arg "Tablegraph.add_dep: self-dependency";
  let b = dep_end t before in
  let a = dep_end t after in
  if not (List.mem before a.preds) then begin
    a.preds <- before :: a.preds;
    b.succs <- after :: b.succs;
    t.dep_list <- (before, after) :: t.dep_list
  end

let tables t = List.rev t.table_list
let deps t = List.rev t.dep_list
let table_count t = Hashtbl.length t.nodes

let edges pick t name =
  match Hashtbl.find_opt t.nodes name with Some n -> pick n | None -> []

let predecessors = edges (fun n -> n.preds)
let successors = edges (fun n -> n.succs)

let has_cycle t =
  (* Kahn's algorithm: if we cannot consume all tables, there is a cycle. *)
  let names = List.map (fun tab -> tab.table_name) (tables t) in
  let in_deg = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace in_deg n (List.length (predecessors t n))) names;
  let queue = Queue.create () in
  List.iter (fun n -> if Hashtbl.find in_deg n = 0 then Queue.add n queue) names;
  let consumed = ref 0 in
  while not (Queue.is_empty queue) do
    let n = Queue.pop queue in
    incr consumed;
    List.iter
      (fun succ ->
        let d = Hashtbl.find in_deg succ - 1 in
        Hashtbl.replace in_deg succ d;
        if d = 0 then Queue.add succ queue)
      (successors t n)
  done;
  !consumed <> List.length names

let critical_path t =
  let memo = Hashtbl.create 16 in
  let rec height name =
    match Hashtbl.find_opt memo name with
    | Some h -> h
    | None ->
        let h =
          1
          + List.fold_left (fun acc p -> max acc (height p)) 0 (predecessors t name)
        in
        Hashtbl.replace memo name h;
        h
  in
  List.fold_left
    (fun acc tab -> max acc (height tab.table_name))
    0 (tables t)

let merge a b =
  let t = create () in
  List.iter (add_table t) (tables a);
  List.iter (add_table t) (tables b);
  List.iter (fun (before, after) -> add_dep t ~before ~after) (deps a);
  List.iter (fun (before, after) -> add_dep t ~before ~after) (deps b);
  t
