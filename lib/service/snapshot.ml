module Session = Rrs_core.Engine.Session
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

let to_line t =
  let w = Wire.writer ~capacity:(256 + (8 * (Array.length t.delay + Array.length t.cache))) () in
  add_line w t;
  Wire.contents w

let equal a b =
  a.version = b.version && a.ops = b.ops && a.round = b.round && a.n = b.n
  && a.delta = b.delta && a.delay = b.delay
  && a.reconfigurations = b.reconfigurations
  && a.reconfig_cost = b.reconfig_cost
  && a.executed = b.executed && a.dropped = b.dropped
  && a.pending_jobs = b.pending_jobs
  && a.future_arrivals = b.future_arrivals
  && a.cache = b.cache
