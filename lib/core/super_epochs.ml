type t = {
  m : int;
  mutable completed : int;
  mutable history : int list; (* active-color counts, reverse order *)
  mutable updates : int;
  active : (int, unit) Hashtbl.t; (* colors updated in the current s-epoch *)
}

let create ~m =
  if m < 1 then invalid_arg "Super_epochs.create: m < 1";
  { m; completed = 0; history = []; updates = 0; active = Hashtbl.create 16 }

let attach t inner =
  Rrs_obs.Sink.callback (fun (e : Rrs_obs.Event.t) ->
      Rrs_obs.Sink.emit inner e;
      match e with
      | Timestamp_update { round; color } ->
          t.updates <- t.updates + 1;
          Hashtbl.replace t.active color ();
          if Hashtbl.length t.active >= 2 * t.m then begin
            (* the super-epoch ends the moment the 2m-th color updates *)
            let active_colors = Hashtbl.length t.active in
            t.completed <- t.completed + 1;
            t.history <- active_colors :: t.history;
            Hashtbl.reset t.active;
            if Rrs_obs.Sink.enabled inner then
              Rrs_obs.Sink.emit inner
                (Rrs_obs.Event.Super_epoch
                   {
                     round;
                     index = t.completed;
                     active_colors;
                     updates = t.updates;
                   })
          end
      | _ -> ())

let completed t = t.completed
let current_active_colors t = Hashtbl.length t.active
let active_colors_per_super_epoch t = List.rev t.history
let updates_total t = t.updates
