open Consensus
module Engine = Sim.Engine
module Imap = Map.Make (Int)
module Iset = Set.Make (Int)

module IBmap = Map.Make (struct
  type t = int * int (* instance, ballot *)

  let compare (i1, b1) (i2, b2) =
    let c = Int.compare i1 i2 in
    if c <> 0 then c else Int.compare b1 b2
end)

let resend_tag = -1

let submit_tag = -2

(* Chosen entries are folded into 1b votes with an infinite ballot: a
   new leader's max-vbal choice can then never contradict a chosen
   command (Paxos safety would already prevent it for *reported* votes,
   but a replica that garbage-collected an instance into its chosen set
   must still speak for it in phase 1b). *)
let chosen_vbal = max_int

let catchup_batch = 32

type state = {
  cfg : Dgl.Config.t;
  progress_gate : bool;
  workload : (float * Command.t) array;  (* own submission schedule *)
  next_submit : int;
  total_commands : int;
  mbal : Ballot.t;
  session : Dgl.Session.t;
  ivotes : Smr_messages.ivote Imap.t;  (* accepted votes, unchosen instances *)
  chosen : Command.t Imap.t;
  chosen_ids : Iset.t;  (* non-noop command ids present in [chosen] *)
  chosen_upto : int;  (* instances 0 .. chosen_upto-1 are all chosen *)
  pending : Command.t list;  (* submitted / forwarded, not yet chosen *)
  (* leader bookkeeping, valid for the current mbal *)
  p1b_from : Quorum.t;
  p1b_merged : Smr_messages.ivote Imap.t;
  p1b_watermark : int;  (* max chosen_upto heard in 1b responses *)
  leading : bool;
  next_instance : int;
  proposed : Command.t Imap.t;
  proposed_ids : Iset.t;
  p2b : (Quorum.t * Command.t) IBmap.t;
  decided : bool;
  last_active_local : float;
  progress_mark : int;
      (* chosen_upto when the session timer was last armed: the timer
         only triggers Start Phase 1 if no instance was chosen since *)
}

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let mbal st = st.mbal

let session_number st = st.session.Dgl.Session.number

let leading st = st.leading

let chosen_upto st = st.chosen_upto

let log_prefix st =
  List.init st.chosen_upto (fun i -> Imap.find i st.chosen)

let applied st =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun c ->
      if Command.is_noop c || Hashtbl.mem seen c.Command.id then false
      else begin
        Hashtbl.add seen c.Command.id ();
        true
      end)
    (log_prefix st)

let register st = List.fold_left Command.apply 0 (applied st)

let pending_count st = List.length st.pending

let tally_count st = IBmap.cardinal st.p2b

let chosen_at st instance = Imap.find_opt instance st.chosen

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let n_of st = st.cfg.Dgl.Config.n

let mark_active ctx st = { st with last_active_local = Engine.local_time ctx }

let gossip_1a ctx st =
  Engine.broadcast ctx (Smr_messages.M1a { mbal = st.mbal });
  mark_active ctx st

(* O(log n): every client submission consults this, so it must not scan
   the chosen log (that turns the server quadratic in decrees) *)
let chosen_id_known st id = Iset.mem id st.chosen_ids

let add_pending st cmd =
  if
    Command.is_noop cmd
    || List.exists (fun c -> c.Command.id = cmd.Command.id) st.pending
    || chosen_id_known st cmd.Command.id
  then st
  else
    (* lint: allow T2 — pending is bounded by in-flight client commands
       and the duplicate scan above is already linear; the tail append
       keeps FIFO proposal order without a deque *)
    { st with pending = st.pending @ [ cmd ] }

(* Raise mbal to [b]; resets leader bookkeeping and, when the session
   advances, re-arms the session timer and gossips a 1a — the same rules
   as the single-shot algorithm.  Commands we proposed but that are not
   chosen yet go back to pending so they are re-forwarded to whoever
   leads next. *)
let adopt_ballot ctx st b =
  assert (b > st.mbal);
  let n = n_of st in
  let orphans =
    Imap.fold
      (fun _ cmd acc ->
        if chosen_id_known st cmd.Command.id || Command.is_noop cmd then acc
        else cmd :: acc)
      st.proposed []
  in
  let st =
    {
      st with
      mbal = b;
      p1b_from = Quorum.create ~n;
      p1b_merged = Imap.empty;
      p1b_watermark = st.chosen_upto;
      leading = false;
      proposed = Imap.empty;
      proposed_ids = Iset.empty;
    }
  in
  let st = List.fold_left add_pending st orphans in
  let new_session = Ballot.session ~n b in
  if new_session > st.session.Dgl.Session.number then begin
    let st =
      {
        st with
        session = Dgl.Session.enter st.session ~number:new_session;
        progress_mark = st.chosen_upto;
      }
    in
    Engine.set_timer ctx ~local_delay:st.cfg.Dgl.Config.timer_local
      ~tag:new_session;
    gossip_1a ctx st
  end
  else st

(* ------------------------------------------------------------------ *)
(* Choosing and applying                                               *)
(* ------------------------------------------------------------------ *)

let maybe_decide ctx st =
  if st.decided || st.total_commands = 0 then st
  else begin
    let prefix_cmds = applied st in
    if List.length prefix_cmds = st.total_commands then begin
      Engine.decide ctx (Command.checksum prefix_cmds);
      { st with decided = true }
    end
    else st
  end

(* Remove every (instance, ballot) tally of one instance: a range of
   adjacent keys, found by seeking to (instance, min_int). *)
let drop_tallies instance p2b =
  IBmap.to_seq_from (instance, min_int) p2b
  |> Seq.take_while (fun ((i, _), _) -> i = instance)
  |> Seq.fold_left (fun m (key, _) -> IBmap.remove key m) p2b

let learn_chosen ctx st instance cmd =
  if Imap.mem instance st.chosen then st
  else begin
    if not (Command.is_noop cmd) then begin
      let buf = Sim.Scratch.buffer (Engine.scratch ctx) in
      Buffer.add_string buf "chosen:";
      Sim.Numfmt.add_int buf cmd.Command.id;
      Engine.note ctx (Buffer.contents buf)
    end;
    let st =
      {
        st with
        chosen = Imap.add instance cmd st.chosen;
        chosen_ids =
          (if Command.is_noop cmd then st.chosen_ids
           else Iset.add cmd.Command.id st.chosen_ids);
        ivotes = Imap.remove instance st.ivotes;
        p2b = drop_tallies instance st.p2b;
        pending =
          List.filter
            (fun c -> c.Command.id <> cmd.Command.id)
            st.pending;
      }
    in
    let rec advance upto =
      if Imap.mem upto st.chosen then advance (upto + 1) else upto
    in
    let st = { st with chosen_upto = advance st.chosen_upto } in
    maybe_decide ctx st
  end

(* ------------------------------------------------------------------ *)
(* Leader side                                                         *)
(* ------------------------------------------------------------------ *)

let propose ctx st cmd =
  let instance = st.next_instance in
  Engine.broadcast ctx (Smr_messages.M2a { mbal = st.mbal; instance; cmd });
  mark_active ctx
    {
      st with
      next_instance = instance + 1;
      proposed = Imap.add instance cmd st.proposed;
      proposed_ids =
        (if Command.is_noop cmd then st.proposed_ids
         else Iset.add cmd.Command.id st.proposed_ids);
    }

let propose_at ctx st instance cmd =
  Engine.broadcast ctx (Smr_messages.M2a { mbal = st.mbal; instance; cmd });
  mark_active ctx
    {
      st with
      proposed = Imap.add instance cmd st.proposed;
      proposed_ids =
        (if Command.is_noop cmd then st.proposed_ids
         else Iset.add cmd.Command.id st.proposed_ids);
      next_instance = Stdlib.max st.next_instance (instance + 1);
    }

let may_propose st cmd =
  (not (Iset.mem cmd.Command.id st.proposed_ids))
  && not (chosen_id_known st cmd.Command.id)

(* Phase 1 completed: re-propose anchored commands, close gaps with
   noops, then ship the pending queue. *)
let open_phase2 ctx st =
  let st = { st with leading = true } in
  (* Everything below the quorum watermark is chosen at some responder
     (their prefixes are contiguous): never propose there — a stale
     1b vote or a noop gap-fill could then be chosen over the committed
     value.  Those instances arrive through the Chosen_digest
     exchange instead. *)
  let floor_ = Stdlib.max st.chosen_upto st.p1b_watermark in
  let horizon =
    Imap.fold (fun i _ acc -> Stdlib.max acc (i + 1)) st.p1b_merged
      (Stdlib.max floor_ st.next_instance)
  in
  let st = { st with next_instance = horizon } in
  (* anchored or chosen instances first *)
  let st =
    Imap.fold
      (fun instance (vote : Smr_messages.ivote) st ->
        if Imap.mem instance st.chosen then st
        else if vote.Smr_messages.vbal = chosen_vbal then
          learn_chosen ctx st instance vote.Smr_messages.vcmd
        else if instance < floor_ then st
        else propose_at ctx st instance vote.Smr_messages.vcmd)
      st.p1b_merged st
  in
  (* fill gaps below the horizon *)
  let st = ref st in
  for i = floor_ to horizon - 1 do
    if
      (not (Imap.mem i !st.chosen))
      && (not (Imap.mem i !st.proposed))
      && not (Imap.mem i !st.p1b_merged)
    then st := propose_at ctx !st i Command.noop
  done;
  let st = !st in
  (* new work *)
  List.fold_left
    (fun st cmd -> if may_propose st cmd then propose ctx st cmd else st)
    st st.pending

let handle_1b ctx st ~src b votes chosen_upto_src =
  if
    b = st.mbal
    && Ballot.owner ~n:(n_of st) b = Engine.self ctx
    && (not st.leading)
    && not (Quorum.mem st.p1b_from src)
  then begin
    let merged =
      List.fold_left
        (fun m (i, (v : Smr_messages.ivote)) ->
          match Imap.find_opt i m with
          | Some (old : Smr_messages.ivote)
            when old.Smr_messages.vbal >= v.Smr_messages.vbal ->
              m
          | _ -> Imap.add i v m)
        st.p1b_merged votes
    in
    let st =
      {
        st with
        p1b_from = Quorum.add st.p1b_from src;
        p1b_merged = merged;
        p1b_watermark = Stdlib.max st.p1b_watermark chosen_upto_src;
      }
    in
    if Quorum.reached st.p1b_from then open_phase2 ctx st else st
  end
  else st

(* ------------------------------------------------------------------ *)
(* Acceptor / learner side                                             *)
(* ------------------------------------------------------------------ *)

let my_1b st =
  (* The contiguous chosen prefix [0, chosen_upto) is summarized by the
     watermark alone; the leader backfills it through the Chosen_digest
     exchange.  Shipping the prefix in every 1b makes phase 1 O(log) —
     under load that eventually outlasts the session timeout and the
     cluster livelocks on leader election.  Safety: an instance inside
     some responder's prefix is chosen, so no new proposal is needed
     there (open_phase2 never proposes below the quorum watermark), and
     every instance above all watermarks still has its highest vote (or
     its chosen value, as an infinite-ballot vote) carried here. *)
  let votes =
    Imap.fold
      (fun i v acc -> (i, v) :: acc)
      st.ivotes
      (Seq.fold_left
         (fun acc (i, cmd) ->
           (i, { Smr_messages.vbal = chosen_vbal; vcmd = cmd }) :: acc)
         []
         (Imap.to_seq_from st.chosen_upto st.chosen))
  in
  Smr_messages.M1b { mbal = st.mbal; votes; chosen_upto = st.chosen_upto }

let handle_1a ctx st b =
  if b >= st.mbal then begin
    let st = if b > st.mbal then adopt_ballot ctx st b else st in
    Engine.send ctx ~dst:(Ballot.owner ~n:(n_of st) b) (my_1b st);
    st
  end
  else st

let handle_2a ctx st b instance cmd =
  if b >= st.mbal then begin
    let st = if b > st.mbal then adopt_ballot ctx st b else st in
    let accept =
      match Imap.find_opt instance st.ivotes with
      | Some (v : Smr_messages.ivote) -> b >= v.Smr_messages.vbal
      | None -> true
    in
    if accept && not (Imap.mem instance st.chosen) then begin
      let st =
        {
          st with
          ivotes =
            Imap.add instance
              { Smr_messages.vbal = b; vcmd = cmd }
              st.ivotes;
        }
      in
      Engine.broadcast ctx (Smr_messages.M2b { mbal = b; instance; cmd });
      st
    end
    else st
  end
  else st

(* A 2b for a chosen instance could only re-learn it; ignoring it keeps
   learn_chosen's tally cleanup final. *)
let handle_2b ctx st ~src b instance cmd =
  if Imap.mem instance st.chosen then st
  else begin
    let key = (instance, b) in
    let who, c =
      match IBmap.find_opt key st.p2b with
      | Some (q, c) -> (q, c)
      | None -> (Quorum.create ~n:(n_of st), cmd)
    in
    if not (Command.equal c cmd) then st
    else begin
      let who = Quorum.add who src in
      let st = { st with p2b = IBmap.add key (who, c) st.p2b } in
      if Quorum.reached who then learn_chosen ctx st instance cmd else st
    end
  end

let handle_forward ctx st cmd =
  if st.leading && may_propose st cmd then propose ctx st cmd
  else add_pending st cmd

let handle_digest ctx st ~src upto =
  if st.chosen_upto > upto then begin
    let hi = Stdlib.min st.chosen_upto (upto + catchup_batch) in
    for i = upto to hi - 1 do
      Engine.send ctx ~dst:src
        (Smr_messages.Chosen { instance = i; cmd = Imap.find i st.chosen })
    done;
    st
  end
  else st

(* ------------------------------------------------------------------ *)
(* Session machinery (identical to the single-shot algorithm)          *)
(* ------------------------------------------------------------------ *)

let start_phase1 ctx st =
  let b = Ballot.next_session ~n:(n_of st) ~proc:(Engine.self ctx) st.mbal in
  adopt_ballot ctx st b

let maybe_start_phase1 ctx st =
  if Dgl.Session.can_start_phase1 st.session then start_phase1 ctx st else st

let hear ctx st ~src msg =
  match Smr_messages.mbal msg with
  | None -> st
  | Some b ->
      if Ballot.session ~n:(n_of st) b = st.session.Dgl.Session.number then
        maybe_start_phase1 ctx
          { st with session = Dgl.Session.hear st.session src }
      else st

(* ------------------------------------------------------------------ *)
(* Client submissions                                                  *)
(* ------------------------------------------------------------------ *)

let schedule_next_submission ctx st =
  if st.next_submit < Array.length st.workload then begin
    let at, _ = st.workload.(st.next_submit) in
    let delay = Float.max 0. (at -. Engine.local_time ctx) in
    Engine.set_timer ctx ~local_delay:delay ~tag:submit_tag
  end

let handle_submit ctx st =
  if st.next_submit >= Array.length st.workload then st
  else begin
    let _, cmd = st.workload.(st.next_submit) in
    let buf = Sim.Scratch.buffer (Engine.scratch ctx) in
    Buffer.add_string buf "submit:";
    Sim.Numfmt.add_int buf cmd.Command.id;
    Engine.note ctx (Buffer.contents buf);
    let st = { st with next_submit = st.next_submit + 1 } in
    schedule_next_submission ctx st;
    let st =
      if st.leading && may_propose st cmd then propose ctx st cmd
      else begin
        Engine.send ctx
          ~dst:(Ballot.owner ~n:(n_of st) st.mbal)
          (Smr_messages.Forward { cmd });
        add_pending st cmd
      end
    in
    st
  end

(* ------------------------------------------------------------------ *)
(* Timers                                                              *)
(* ------------------------------------------------------------------ *)

let on_timer_impl ctx st ~tag =
  if tag = submit_tag then handle_submit ctx st
  else if tag = resend_tag then begin
    let eps = st.cfg.Dgl.Config.epsilon in
    (* catch-up gossip + pending re-forward ride the epsilon tick *)
    Engine.broadcast ctx (Smr_messages.Chosen_digest { upto = st.chosen_upto });
    let leader = Ballot.owner ~n:(n_of st) st.mbal in
    List.iter
      (fun cmd ->
        if not (Iset.mem cmd.Command.id st.proposed_ids) then
          Engine.send ctx ~dst:leader (Smr_messages.Forward { cmd }))
      st.pending;
    let lnow = Engine.local_time ctx in
    let quiet = lnow -. st.last_active_local in
    let st =
      if quiet >= eps -. (eps *. 1e-9) then gossip_1a ctx st else st
    in
    Engine.set_timer ctx ~local_delay:eps ~tag:resend_tag;
    st
  end
  else if
    tag = st.session.Dgl.Session.number
    && not st.session.Dgl.Session.timer_expired
  then begin
    (* Progress gate (the paper's stable-case optimization): a session
       timeout only opens Start Phase 1 if there is outstanding work and
       nothing was chosen since the timer was armed.  Otherwise the
       current leadership is doing its job — re-arm and stand down.
       Safety never depends on when Start Phase 1 runs. *)
    let unchosen_from m =
      (* everything below chosen_upto is chosen: skip that prefix *)
      Seq.exists
        (fun (i, _) -> not (Imap.mem i st.chosen))
        (Imap.to_seq_from st.chosen_upto m)
    in
    let work_outstanding =
      st.pending <> [] || unchosen_from st.ivotes || unchosen_from st.proposed
    in
    let progressed = st.chosen_upto > st.progress_mark in
    if (not st.progress_gate) || (work_outstanding && not progressed) then
      maybe_start_phase1 ctx
        { st with session = Dgl.Session.expire st.session }
    else begin
      Engine.set_timer ctx ~local_delay:st.cfg.Dgl.Config.timer_local
        ~tag:st.session.Dgl.Session.number;
      { st with progress_mark = st.chosen_upto }
    end
  end
  else st

(* ------------------------------------------------------------------ *)
(* Protocol record                                                     *)
(* ------------------------------------------------------------------ *)

let on_message_impl ctx st ~src msg =
  let st =
    match msg with
    | Smr_messages.M1a { mbal } -> handle_1a ctx st mbal
    | Smr_messages.M1b { mbal; votes; chosen_upto } ->
        handle_1b ctx st ~src mbal votes chosen_upto
    | Smr_messages.M2a { mbal; instance; cmd } ->
        handle_2a ctx st mbal instance cmd
    | Smr_messages.M2b { mbal; instance; cmd } ->
        handle_2b ctx st ~src mbal instance cmd
    | Smr_messages.Forward { cmd } -> handle_forward ctx st cmd
    | Smr_messages.Chosen_digest { upto } -> handle_digest ctx st ~src upto
    | Smr_messages.Chosen { instance; cmd } -> learn_chosen ctx st instance cmd
  in
  hear ctx st ~src msg

let initial_state ctx cfg ~progress_gate workload total_commands =
  let n = cfg.Dgl.Config.n in
  {
    cfg;
    progress_gate;
    workload;
    next_submit = 0;
    total_commands;
    mbal = Ballot.initial ~proc:(Engine.self ctx);
    session = Dgl.Session.initial ~n;
    ivotes = Imap.empty;
    chosen = Imap.empty;
    chosen_ids = Iset.empty;
    chosen_upto = 0;
    pending = [];
    p1b_from = Quorum.create ~n;
    p1b_watermark = 0;
    p1b_merged = Imap.empty;
    leading = false;
    next_instance = 0;
    proposed = Imap.empty;
    proposed_ids = Iset.empty;
    p2b = IBmap.empty;
    decided = false;
    last_active_local = Engine.local_time ctx;
    progress_mark = 0;
  }

let arm_timers ctx st =
  Engine.set_timer ctx ~local_delay:st.cfg.Dgl.Config.timer_local
    ~tag:st.session.Dgl.Session.number;
  Engine.set_timer ctx ~local_delay:st.cfg.Dgl.Config.epsilon ~tag:resend_tag;
  schedule_next_submission ctx st

let with_persist f ctx st =
  let st' = f ctx st in
  Engine.persist ctx st';
  st'

(* ------------------------------------------------------------------ *)
(* Durable essence (socket replica restart)                            *)
(* ------------------------------------------------------------------ *)

(* What a real process must carry across a crash is exactly what its 1b
   would report: highest ballot heard, accepted votes, and the chosen
   log (folded in as infinite-ballot votes).  The socket replica
   serializes this as a Wire M1b frame — one codec, CRC included. *)
type essence = {
  e_mbal : Ballot.t;
  e_votes : (int * Smr_messages.ivote) list;
  e_chosen_upto : int;
}

let essence st =
  let votes =
    Imap.fold
      (fun i v acc -> (i, v) :: acc)
      st.ivotes
      (Imap.fold
         (fun i cmd acc ->
           (i, { Smr_messages.vbal = chosen_vbal; vcmd = cmd }) :: acc)
         st.chosen [])
  in
  { e_mbal = st.mbal; e_votes = votes; e_chosen_upto = st.chosen_upto }

let restore ?(progress_gate = true) cfg ctx e =
  let st = initial_state ctx cfg ~progress_gate [||] 0 in
  let chosen, ivotes =
    List.fold_left
      (fun (ch, iv) (i, (v : Smr_messages.ivote)) ->
        if v.Smr_messages.vbal = chosen_vbal then
          (Imap.add i v.Smr_messages.vcmd ch, iv)
        else (ch, Imap.add i v iv))
      (Imap.empty, Imap.empty) e.e_votes
  in
  let n = cfg.Dgl.Config.n in
  let mbal = Stdlib.max e.e_mbal st.mbal in
  let number = Ballot.session ~n mbal in
  let session =
    if number > st.session.Dgl.Session.number then
      Dgl.Session.enter st.session ~number
    else st.session
  in
  let rec advance upto = if Imap.mem upto chosen then advance (upto + 1) else upto in
  let chosen_upto = advance (Stdlib.max 0 e.e_chosen_upto) in
  let horizon =
    Imap.fold
      (fun i _ acc -> Stdlib.max acc (i + 1))
      chosen
      (Imap.fold (fun i _ acc -> Stdlib.max acc (i + 1)) ivotes chosen_upto)
  in
  let st =
    {
      st with
      mbal;
      session;
      ivotes;
      chosen;
      chosen_ids =
        Imap.fold
          (fun _ c acc ->
            if Command.is_noop c then acc else Iset.add c.Command.id acc)
          chosen Iset.empty;
      chosen_upto;
      next_instance = horizon;
      progress_mark = chosen_upto;
    }
  in
  arm_timers ctx st;
  (* tell peers where we stand so their digests backfill the tail we
     lost between the last snapshot and the crash *)
  Engine.broadcast ctx (Smr_messages.Chosen_digest { upto = st.chosen_upto });
  Engine.persist ctx st;
  st

let protocol ?(progress_gate = true) cfg ~workloads =
  if Array.length workloads <> cfg.Dgl.Config.n then
    invalid_arg "Multi_paxos.protocol: workloads length differs from n";
  let all_ids =
    Array.to_list workloads
    |> List.concat_map (List.map (fun (_, c) -> c.Command.id))
  in
  if List.length all_ids <> List.length (List.sort_uniq Int.compare all_ids) then
    invalid_arg "Multi_paxos.protocol: duplicate command ids in workload";
  if List.exists (fun id -> id < 0) all_ids then
    invalid_arg "Multi_paxos.protocol: negative command id in workload";
  let total_commands = List.length all_ids in
  let boot ctx =
    let st =
      initial_state ctx cfg ~progress_gate
        (Array.of_list workloads.(Engine.self ctx))
        total_commands
    in
    arm_timers ctx st;
    Engine.persist ctx st;
    st
  in
  {
    Engine.name = "smr-multi-paxos";
    on_boot = boot;
    on_message =
      (fun ctx st ~src msg ->
        with_persist (fun ctx st -> on_message_impl ctx st ~src msg) ctx st);
    on_timer =
      (fun ctx st ~tag ->
        with_persist (fun ctx st -> on_timer_impl ctx st ~tag) ctx st);
    on_restart =
      (fun ctx ~persisted ->
        match persisted with
        | None -> boot ctx
        | Some st ->
            let st = { st with last_active_local = Engine.local_time ctx } in
            arm_timers ctx st;
            let st = maybe_start_phase1 ctx st in
            Engine.persist ctx st;
            st);
    msg_payload = Smr_messages.payload ~n:cfg.Dgl.Config.n;
  }

module Private = struct
  let with_inflight st ~proposed ~pending ~progress_mark =
    {
      st with
      proposed = Imap.of_seq (List.to_seq proposed);
      proposed_ids =
        List.fold_left
          (fun acc (_, c) ->
            if Command.is_noop c then acc else Iset.add c.Command.id acc)
          Iset.empty proposed;
      pending;
      progress_mark;
    }
end
