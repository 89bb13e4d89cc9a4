(* Layout: one profile holds a lock-free list of per-domain tracks; a
   domain writes only to its own track, so event recording needs no
   lock.  The disabled fast path is a single process-global atomic load
   ([installed = 0]) so that instrumented hot loops pay one predictable
   branch per call site when nobody is profiling — the DLS lookup only
   happens once some profiler is attached somewhere. *)

type ev = {
  ph : char; (* 'B' begin, 'E' end, 'i' instant *)
  name : string;
  ts : float; (* microseconds from the profile epoch *)
  minor : float; (* allocation counters at the event *)
  promoted : float;
  major : float;
}

let dummy_ev =
  { ph = 'i'; name = ""; ts = 0.; minor = 0.; promoted = 0.; major = 0. }

type track = {
  domain_id : int;
  mutable buf : ev array;
  mutable len : int;
  mutable last_ts : float;
  mutable stack : string list; (* innermost open span first *)
}

type t = {
  epoch : float; (* gettimeofday at create; ts origin *)
  tracks : track list Atomic.t;
  total : int Atomic.t;
}

let create () =
  {
    epoch = Unix.gettimeofday ();
    tracks = Atomic.make [];
    total = Atomic.make 0;
  }

(* How many with_profiler scopes are live process-wide.  Zero means
   every instrumented call site is a load-and-branch no-op. *)
let installed = Atomic.make 0

let scope : t option Domain.DLS.key =
  Domain.DLS.new_key ~split_from_parent:Fun.id (fun () -> None)

(* The per-domain track is cached in a second key that children must
   NOT inherit: a spawned worker shares the profile but needs its own
   track (tracks have a single writer by construction). *)
let track_cache : (t * track) option Domain.DLS.key =
  Domain.DLS.new_key ~split_from_parent:(fun _ -> None) (fun () -> None)

let rec register_track t track =
  let old = Atomic.get t.tracks in
  if not (Atomic.compare_and_set t.tracks old (track :: old)) then
    register_track t track

let track_for t =
  match Domain.DLS.get track_cache with
  | Some (owner, track) when owner == t -> track
  | _ ->
      let track =
        {
          domain_id = (Domain.self () :> int);
          buf = Array.make 256 dummy_ev;
          len = 0;
          last_ts = 0.;
          stack = [];
        }
      in
      register_track t track;
      Domain.DLS.set track_cache (Some (t, track));
      track

let push t track ev =
  if track.len = Array.length track.buf then begin
    let bigger = Array.make (2 * track.len) dummy_ev in
    Array.blit track.buf 0 bigger 0 track.len;
    track.buf <- bigger
  end;
  track.buf.(track.len) <- ev;
  track.len <- track.len + 1;
  Atomic.incr t.total

(* gettimeofday is not monotonic; Chrome traces must be (per track), so
   clamp against the track's high-water mark. *)
let stamp t track =
  let ts = (Unix.gettimeofday () -. t.epoch) *. 1e6 in
  let ts = if ts < track.last_ts then track.last_ts else ts in
  track.last_ts <- ts;
  ts

let record t ph name =
  let track = track_for t in
  let minor = Gc.minor_words () in
  let { Gc.promoted_words = promoted; major_words = major; _ } =
    Gc.quick_stat ()
  in
  let ts = stamp t track in
  push t track { ph; name; ts; minor; promoted; major };
  track

let active () =
  Atomic.get installed > 0 && Domain.DLS.get scope <> None

let enter name =
  if Atomic.get installed > 0 then
    match Domain.DLS.get scope with
    | None -> ()
    | Some t ->
        let track = record t 'B' name in
        track.stack <- name :: track.stack

let leave _name =
  if Atomic.get installed > 0 then
    match Domain.DLS.get scope with
    | None -> ()
    | Some t -> (
        let track = track_for t in
        match track.stack with
        | [] -> () (* unbalanced leave: drop it, keep the trace valid *)
        | open_name :: rest ->
            track.stack <- rest;
            ignore (record t 'E' open_name))

let instant name =
  if Atomic.get installed > 0 then
    match Domain.DLS.get scope with
    | None -> ()
    | Some t -> ignore (record t 'i' name)

let with_profiler t thunk =
  let outer = Domain.DLS.get scope in
  Domain.DLS.set scope (Some t);
  Atomic.incr installed;
  Fun.protect
    ~finally:(fun () ->
      Atomic.decr installed;
      Domain.DLS.set scope outer)
    thunk

let span name thunk =
  if active () then begin
    enter name;
    Fun.protect ~finally:(fun () -> leave name) thunk
  end
  else thunk ()

let events t = Atomic.get t.total

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                           *)
(* ------------------------------------------------------------------ *)

let add_escaped buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let add_event buf ~first ~tid ~ph ~name ~ts ~args =
  if not !first then Buffer.add_char buf ',';
  first := false;
  Buffer.add_string buf "{\"name\":\"";
  add_escaped buf name;
  Buffer.add_string buf (Printf.sprintf "\",\"ph\":\"%c\"" ph);
  if ph = 'i' then Buffer.add_string buf ",\"s\":\"t\"";
  Buffer.add_string buf (Printf.sprintf ",\"pid\":1,\"tid\":%d" tid);
  Buffer.add_string buf (Printf.sprintf ",\"ts\":%.3f" ts);
  (match args with
  | [] -> ()
  | args ->
      Buffer.add_string buf ",\"args\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          add_escaped buf k;
          Buffer.add_string buf (Printf.sprintf "\":%.0f" v))
        args;
      Buffer.add_char buf '}');
  Buffer.add_char buf '}'

(* Span-end events carry the words allocated within the span (inclusive
   of children), computed by replaying the begin/end structure: the
   counters are absolute at both boundaries, the delta is theirs. *)
let render_track buf ~first track =
  let tid = track.domain_id in
  if not !first then Buffer.add_char buf ',';
  first := false;
  Buffer.add_string buf
    (Printf.sprintf
       "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"domain-%d\"}}"
       tid tid);
  (* sort tracks by domain id in Perfetto's timeline, not by first-event
     time (domain 0 on top even when a spawned domain profiles first) *)
  Buffer.add_string buf
    (Printf.sprintf
       ",{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"sort_index\":%d}}"
       tid tid);
  let open_spans = ref [] in
  let close ev (b : ev) =
    add_event buf ~first ~tid ~ph:'E' ~name:ev.name ~ts:ev.ts
      ~args:
        [
          ("minor_words", ev.minor -. b.minor);
          ("promoted_words", ev.promoted -. b.promoted);
          ("major_words", ev.major -. b.major);
        ]
  in
  for i = 0 to track.len - 1 do
    let ev = track.buf.(i) in
    match ev.ph with
    | 'B' ->
        open_spans := ev :: !open_spans;
        add_event buf ~first ~tid ~ph:'B' ~name:ev.name ~ts:ev.ts ~args:[]
    | 'E' -> (
        match !open_spans with
        | b :: rest ->
            open_spans := rest;
            close ev b
        | [] -> ())
    | _ -> add_event buf ~first ~tid ~ph:'i' ~name:ev.name ~ts:ev.ts ~args:[]
  done;
  (* spans an exception (or an abandoned domain) left open: close them
     at the track's last timestamp so the trace stays balanced *)
  List.iter
    (fun (b : ev) -> close { b with ph = 'E'; ts = track.last_ts } b)
    !open_spans

let to_chrome_string t =
  let tracks =
    List.sort
      (fun a b -> compare a.domain_id b.domain_id)
      (Atomic.get t.tracks)
  in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"traceEvents\":[";
  (* process-level metadata first, so Perfetto labels the single pid *)
  Buffer.add_string buf
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"rrs\"}}";
  let first = ref false in
  List.iter (fun track -> render_track buf ~first track) tracks;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents buf

let write_chrome t path =
  let temp = path ^ ".tmp." ^ string_of_int (Unix.getpid ()) in
  Out_channel.with_open_text temp (fun oc ->
      output_string oc (to_chrome_string t));
  Sys.rename temp path
