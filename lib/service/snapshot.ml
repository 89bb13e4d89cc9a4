module Session = Rrs_core.Engine.Session
module Json = Rrs_obs.Json
module Wire = Rrs_core.Wire

type t = {
  version : int;
  ops : int;
  round : int;
  n : int;
  delta : int;
  delay : int array;
  reconfigurations : int;
  reconfig_cost : int;
  executed : int;
  dropped : int;
  pending_jobs : int;
  future_arrivals : int;
  cache : int array;
}

let version = 1

let of_session ~ops session =
  let cost = Session.cost session in
  {
    version;
    ops;
    round = Session.round session;
    n = Session.n session;
    delta = Session.delta session;
    delay = Session.delay session;
    reconfigurations = Session.reconfigurations session;
    reconfig_cost = cost.Rrs_core.Cost.reconfig;
    executed = Session.executed session;
    dropped = Session.dropped session;
    pending_jobs = Session.pending_jobs session;
    future_arrivals = Session.future_arrivals session;
    cache = Session.cache session;
  }

(* The canonical JSON object, written field by field: no Json tree and
   no [string_of_int] *)
let add_line w t =
  let field name v =
    Wire.add_string w name;
    Wire.add_decimal w v
  in
  let array name a =
    Wire.add_string w name;
    Wire.add_char w '[';
    Array.iteri
      (fun i v ->
        if i > 0 then Wire.add_char w ',';
        Wire.add_decimal w v)
      a;
    Wire.add_char w ']'
  in
  field {|{"type":"serve_state","version":|} t.version;
  field {|,"ops":|} t.ops;
  field {|,"round":|} t.round;
  field {|,"n":|} t.n;
  field {|,"delta":|} t.delta;
  array {|,"delay":|} t.delay;
  field {|,"reconfigurations":|} t.reconfigurations;
  field {|,"reconfig_cost":|} t.reconfig_cost;
  field {|,"executed":|} t.executed;
  field {|,"dropped":|} t.dropped;
  field {|,"pending_jobs":|} t.pending_jobs;
  field {|,"future_arrivals":|} t.future_arrivals;
  array {|,"cache":|} t.cache;
  Wire.add_char w '}'

let ( let* ) = Result.bind

let field name json =
  match Json.member name json with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "checkpoint: missing field %S" name)

let int_field name json =
  let* v = field name json in
  Result.map_error
    (fun e -> Printf.sprintf "checkpoint: field %S: %s" name e)
    (Json.to_int v)

let int_array_field name json =
  let* v = field name json in
  let* items =
    Result.map_error
      (fun e -> Printf.sprintf "checkpoint: field %S: %s" name e)
      (Json.to_list v)
  in
  let* ints =
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        let* v =
          Result.map_error
            (fun e -> Printf.sprintf "checkpoint: field %S: %s" name e)
            (Json.to_int item)
        in
        Ok (v :: acc))
      (Ok []) items
  in
  Ok (Array.of_list (List.rev ints))

let of_json json =
  let* v = int_field "version" json in
  if v <> version then
    Error (Printf.sprintf "checkpoint: version %d (want %d)" v version)
  else
    let* ops = int_field "ops" json in
    let* round = int_field "round" json in
    let* n = int_field "n" json in
    let* delta = int_field "delta" json in
    let* delay = int_array_field "delay" json in
    let* reconfigurations = int_field "reconfigurations" json in
    let* reconfig_cost = int_field "reconfig_cost" json in
    let* executed = int_field "executed" json in
    let* dropped = int_field "dropped" json in
    let* pending_jobs = int_field "pending_jobs" json in
    let* future_arrivals = int_field "future_arrivals" json in
    let* cache = int_array_field "cache" json in
    Ok
      {
        version = v;
        ops;
        round;
        n;
        delta;
        delay;
        reconfigurations;
        reconfig_cost;
        executed;
        dropped;
        pending_jobs;
        future_arrivals;
        cache;
      }

let to_line t =
  let w = Wire.writer ~capacity:(256 + (8 * (Array.length t.delay + Array.length t.cache))) () in
  add_line w t;
  Wire.contents w

let of_line s =
  let line =
    match String.index_opt s '\n' with Some i -> String.sub s 0 i | None -> s
  in
  let* json = Json.parse line in
  of_json json

let equal a b =
  a.version = b.version && a.ops = b.ops && a.round = b.round && a.n = b.n
  && a.delta = b.delta && a.delay = b.delay
  && a.reconfigurations = b.reconfigurations
  && a.reconfig_cost = b.reconfig_cost
  && a.executed = b.executed && a.dropped = b.dropped
  && a.pending_jobs = b.pending_jobs
  && a.future_arrivals = b.future_arrivals
  && a.cache = b.cache

let pp fmt t =
  Format.fprintf fmt
    "round %d: n=%d delta=%d colors=%d pending=%d executed=%d dropped=%d \
     recolorings=%d (ops %d)"
    t.round t.n t.delta (Array.length t.delay) t.pending_jobs t.executed
    t.dropped t.reconfigurations t.ops
