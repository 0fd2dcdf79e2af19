(* One scenario on one Netio loop: the engine's semantics with the wall
   clock as the clock.  Every scheduled action — a message copy, a
   timer, a fault — is a Netio timer; [pending] counts the ones not yet
   fired, so the run ends, as the engine's does, once nothing is left
   to happen. *)

let run (sc : Sim.Scenario.t)
    (protocol : ('msg, 'state) Sim.Runtime.protocol) :
    'state Sim.Engine.run_result =
  (match Sim.Scenario.validate sc with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Host.run: invalid scenario: " ^ msg));
  (* validate has pinned rho to [0, 1) *)
  if sc.rho > 0. then invalid_arg "Host.run: rho must be 0 on the wall clock";
  let n = sc.n in
  let root = Sim.Prng.create sc.seed in
  let net_rng = Sim.Prng.split root in
  (* the engine draws its clock stream here; splitting it too keeps
     every process's rng the one it gets in the simulator *)
  ignore (Sim.Prng.split root : Sim.Prng.t);
  let proc_rngs = Array.init n (fun _ -> Sim.Prng.split root) in
  let net_env = Sim.Network.make_env ~now:0. ~ts:sc.ts ~delta:sc.delta in
  let net_delays = Sim.Network.make_delays () in
  let trace =
    Sim.Trace.create ~capacity:sc.trace_capacity ~enabled:sc.record_trace ()
  in
  let tracing = Sim.Trace.enabled trace in
  let metrics = Sim.Registry.create () in
  let storage = Sim.Stable_storage.create ~n in
  let states : 'state option array = Array.make n None in
  let incarnations = Array.make n 0 in
  let decision_times = Array.make n None in
  let decision_values = Array.make n None in
  let violation = ref None in
  let sent = ref 0 and delivered = ref 0 and dropped = ref 0 in
  let next_msg_id = ref 0 and events = ref 0 in
  let pending = ref 0 and pending_faults = ref 0 in
  let loop = Netio.create () in
  let now () = Netio.now loop in
  let schedule delay fn =
    incr pending;
    Netio.after loop delay (fun () ->
        decr pending;
        incr events;
        fn ())
  in
  let ctxs = ref [||] in
  let drop ~id ~src ~dst msg =
    incr dropped;
    Sim.Registry.inc metrics ~proc:dst "msgs_dropped";
    if tracing then
      Sim.Trace.record_drop trace ~t:(now ()) ~id ~src ~dst
        (protocol.msg_payload msg)
  in
  let deliver ~id ~src ~dst msg =
    match states.(dst) with
    | None -> drop ~id ~src ~dst msg
    | Some st ->
        incr delivered;
        Sim.Registry.inc metrics ~proc:dst "msgs_delivered";
        if tracing then
          Sim.Trace.record_deliver trace ~t:(now ()) ~id ~src ~dst
            (protocol.msg_payload msg);
        states.(dst) <- Some (protocol.on_message !ctxs.(dst) st ~src msg)
  in
  let send p ~dst msg =
    incr sent;
    Sim.Registry.inc metrics ~proc:p "msgs_sent";
    let id = !next_msg_id in
    incr next_msg_id;
    net_env.now <- now ();
    let copies =
      sc.network.decide_into net_rng net_env net_delays ~src:p ~dst
    in
    if copies = 0 then drop ~id ~src:p ~dst msg
    else begin
      if tracing then
        Sim.Trace.record_send trace ~t:net_env.now ~id ~src:p ~dst
          (protocol.msg_payload msg);
      for i = 0 to copies - 1 do
        schedule (Sim.Network.delay net_delays i) (fun () ->
            deliver ~id ~src:p ~dst msg)
      done
    end
  in
  let set_timer p ~local_delay ~tag =
    if local_delay < 0. then invalid_arg "Host.set_timer: negative delay";
    let t = now () in
    if tracing then
      Sim.Trace.record_timer_set trace ~t ~proc:p ~tag
        ~fire_at:(t +. local_delay);
    (* a timer set before a crash is void: the incarnation moves on *)
    let armed_in = incarnations.(p) in
    schedule local_delay (fun () ->
        match states.(p) with
        | Some st when incarnations.(p) = armed_in ->
            if tracing then
              Sim.Trace.record_timer_fire trace ~t:(now ()) ~proc:p ~tag;
            states.(p) <- Some (protocol.on_timer !ctxs.(p) st ~tag)
        | Some _ | None -> ())
  in
  let decide p v =
    if Option.is_none decision_values.(p) then begin
      let t = now () in
      decision_values.(p) <- Some v;
      decision_times.(p) <- Some t;
      Sim.Registry.inc metrics ~proc:p "decisions";
      Sim.Registry.observe metrics "decision_latency_delta"
        ((t -. sc.ts) /. sc.delta);
      Sim.Trace.record_decide trace ~t ~proc:p ~value:v;
      Array.iteri
        (fun q vq ->
          match vq with
          | Some vq when vq <> v && Option.is_none !violation ->
              violation := Some (p, v, q, vq)
          | Some _ | None -> ())
        decision_values
    end
  in
  ctxs :=
    Array.init n (fun p : (_, _) Sim.Runtime.ctx ->
        {
          self = p;
          n;
          proposal = sc.proposals.(p);
          local_time = now;
          send = send p;
          broadcast =
            (fun msg ->
              for dst = 0 to n - 1 do
                send p ~dst msg
              done);
          set_timer = set_timer p;
          persist = (fun st -> Sim.Stable_storage.save storage ~proc:p st);
          decide = decide p;
          has_decided = (fun () -> Option.is_some decision_values.(p));
          rng = proc_rngs.(p);
          scratch = Sim.Scratch.create ();
          note =
            (fun text -> Sim.Trace.record_note trace ~t:(now ()) ~proc:p text);
          count = (fun name -> Sim.Registry.inc metrics ~proc:p name);
          oracle_time = now;
        });
  Sim.Registry.inc metrics "runs";
  List.iter
    (fun { Sim.Fault.at; proc; action } ->
      incr pending_faults;
      schedule (at -. now ()) (fun () ->
          decr pending_faults;
          incarnations.(proc) <- incarnations.(proc) + 1;
          match action with
          | Sim.Fault.Crash ->
              Sim.Trace.record_crash trace ~t:(now ()) ~proc;
              states.(proc) <- None
          | Sim.Fault.Restart ->
              Sim.Trace.record_restart trace ~t:(now ()) ~proc;
              let persisted = Sim.Stable_storage.load storage ~proc in
              states.(proc) <-
                Some (protocol.on_restart !ctxs.(proc) ~persisted)))
    (Sim.Fault.sorted_events sc.faults);
  for p = 0 to n - 1 do
    if not (List.mem p sc.faults.initially_down) then
      states.(p) <- Some (protocol.on_boot !ctxs.(p))
  done;
  let all_up_decided () =
    let up = ref 0 and undecided = ref 0 in
    Array.iteri
      (fun p st ->
        if Option.is_some st then begin
          incr up;
          if Option.is_none decision_values.(p) then incr undecided
        end)
      states;
    !up > 0 && !undecided = 0
  in
  let finished () =
    !pending = 0
    || now () >= sc.horizon
    || (sc.stop_on_all_decided && !pending_faults = 0 && all_up_decided ())
  in
  Fun.protect
    ~finally:(fun () -> Netio.shutdown loop)
    (fun () ->
      while not (finished ()) do
        Netio.step loop (Float.max 0. (sc.horizon -. now ()))
      done);
  {
    Sim.Engine.scenario = sc;
    protocol_name = protocol.name;
    decision_times;
    decision_values;
    messages_sent = !sent;
    messages_delivered = !delivered;
    messages_dropped = !dropped;
    end_time = now ();
    events_processed = !events;
    trace;
    metrics;
    agreement_violation = !violation;
    final_states = states;
  }
