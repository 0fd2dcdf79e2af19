(* A deterministic, JSON-serializable fault schedule for the socket
   cluster — the eventual-synchrony adversary as data.  Every time in a
   schedule is relative to the campaign's start; [ts] is the
   stabilization point: disruptive actions must end by then, and the
   only post-[ts] interference allowed is added latency bounded by
   [delta], which is exactly the regime the paper's recovery bound is
   proved for. *)

type action =
  | Cut of { src : int; dst : int; from_ : float; until : float }
  | Partition of { groups : int list list; from_ : float; until : float }
  | Delay of { from_ : float; until : float; max_delay : float }
  | Duplicate of { src : int; dst : int; from_ : float; until : float; prob : float }
  | Reorder of { src : int; dst : int; from_ : float; until : float; prob : float }
  | Corrupt of { src : int; dst : int; from_ : float; until : float; prob : float }
  | Truncate of { src : int; dst : int; from_ : float; until : float; prob : float }
  | Reset of { dst : int; at : float }
  | Stall of { src : int; dst : int; from_ : float; until : float }

type t = {
  name : string;
  seed : int64;
  n : int;
  ts : float;
  delta : float;
  horizon : float;
  actions : action list;
}

let format_tag = "chaos-schedule/1"

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let check cond fmt =
  Printf.ksprintf (fun m -> if cond then Ok () else Error m) fmt

let endpoint_ok n e = e >= -1 && e < n

let validate_action t i a =
  let pre = Printf.sprintf "action %d" i in
  let window ~from_ ~until =
    let* () =
      check (from_ >= 0. && from_ <= until) "%s: window [%g,%g) malformed" pre
        from_ until
    in
    check (until <= t.horizon) "%s: window ends past the horizon" pre
  in
  let link ~src ~dst =
    check (endpoint_ok t.n src && endpoint_ok t.n dst && src <> dst)
      "%s: link %d->%d out of range for n=%d" pre src dst t.n
  in
  let probability p = check (p >= 0. && p <= 1.) "%s: prob %g outside [0,1]" pre p in
  let disruptive ~until =
    check (until <= t.ts)
      "%s: disruptive window must end by ts=%g (ends %g)" pre t.ts until
  in
  match a with
  | Cut { src; dst; from_; until } | Stall { src; dst; from_; until } ->
      let* () = link ~src ~dst in
      let* () = window ~from_ ~until in
      disruptive ~until
  | Partition { groups; from_; until } ->
      let* () = window ~from_ ~until in
      let* () = disruptive ~until in
      let members = List.concat groups in
      let* () =
        check
          (List.for_all (endpoint_ok t.n) members)
          "%s: partition member out of range" pre
      in
      check
        (List.length members
        = List.length (List.sort_uniq Int.compare members))
        "%s: partition groups overlap" pre
  | Delay { from_; until; max_delay } ->
      let* () = window ~from_ ~until in
      let* () = check (max_delay >= 0.) "%s: negative max_delay" pre in
      (* pre-TS delay is arbitrary (that is the model); post-TS it must
         keep the link delta-bounded *)
      if until <= t.ts then Ok ()
      else
        let* () =
          check (from_ >= t.ts)
            "%s: delay window must lie entirely before or after ts" pre
        in
        check (max_delay <= t.delta)
          "%s: post-ts delay %g exceeds delta=%g" pre max_delay t.delta
  | Duplicate { src; dst; from_; until; prob }
  | Reorder { src; dst; from_; until; prob }
  | Corrupt { src; dst; from_; until; prob }
  | Truncate { src; dst; from_; until; prob } ->
      let* () = link ~src ~dst in
      let* () = window ~from_ ~until in
      let* () = probability prob in
      disruptive ~until
  | Reset { dst; at } ->
      let* () =
        check (dst >= 0 && dst < t.n) "%s: reset target %d out of range" pre dst
      in
      check (at >= 0. && at <= t.ts) "%s: reset at %g must lie in [0,ts]" pre at

let validate t =
  let* () = check (t.name <> "") "empty name" in
  let* () = check (t.n >= 1 && t.n <= 64) "n=%d outside [1,64]" t.n in
  let* () = check (t.ts >= 0.) "negative ts" in
  let* () = check (t.delta > 0.) "delta must be positive" in
  let* () = check (t.horizon >= t.ts) "horizon before ts" in
  let rec go i = function
    | [] -> Ok ()
    | a :: rest ->
        let* () = validate_action t i a in
        go (i + 1) rest
  in
  go 0 t.actions

(* ------------------------------------------------------------------ *)
(* Deterministic generation                                            *)
(* ------------------------------------------------------------------ *)

(* The canonical campaign shape from the acceptance criteria: a
   directed partition plus a link cut before ts, corruption on a peer
   link, one replica reset, then delta-bounded added latency after ts.
   Same seed, same schedule — byte for byte. *)
let generate ?(name = "") ~seed ~n ~ts ~delta ~horizon () =
  if n < 2 then invalid_arg "Schedule.generate: need n >= 2";
  if ts <= 0. || delta <= 0. || horizon < ts then
    invalid_arg "Schedule.generate: need ts > 0, delta > 0, horizon >= ts";
  let rng = Sim.Prng.create seed in
  let victim = Sim.Prng.int rng n in
  let other_of avoid =
    let rec draw () =
      let r = Sim.Prng.int rng n in
      if r = avoid then draw () else r
    in
    draw ()
  in
  let rest =
    List.filter (fun r -> r <> victim) (List.init n (fun i -> i))
  in
  let cut_src = Sim.Prng.int rng n in
  let cut_dst = other_of cut_src in
  let corrupt_src = Sim.Prng.int rng n in
  let corrupt_dst = other_of corrupt_src in
  let corrupt_prob = 0.1 +. Sim.Prng.float rng 0.4 in
  let reset_at = ts *. (0.55 +. Sim.Prng.float rng 0.2) in
  let actions =
    [
      (* isolate the victim (clients ride with the majority side) *)
      Partition
        {
          groups = [ [ victim ]; -1 :: rest ];
          from_ = ts *. 0.1;
          until = ts *. 0.55;
        };
      Cut { src = cut_src; dst = cut_dst; from_ = 0.; until = ts *. 0.4 };
      Corrupt
        {
          src = corrupt_src;
          dst = corrupt_dst;
          from_ = ts *. 0.2;
          until = ts *. 0.8;
          prob = corrupt_prob;
        };
      Reset { dst = Sim.Prng.int rng n; at = reset_at };
      Delay { from_ = ts; until = horizon; max_delay = delta };
    ]
  in
  let name = if name = "" then Printf.sprintf "chaos-%Ld" seed else name in
  let t = { name; seed; n; ts; delta; horizon; actions } in
  match validate t with
  | Ok () -> t
  | Error m -> invalid_arg ("Schedule.generate: " ^ m)

(* ------------------------------------------------------------------ *)
(* Equality                                                            *)
(* ------------------------------------------------------------------ *)

let equal_action a b =
  match (a, b) with
  | Cut a, Cut b ->
      a.src = b.src && a.dst = b.dst && Float.equal a.from_ b.from_
      && Float.equal a.until b.until
  | Partition a, Partition b ->
      List.equal (List.equal Int.equal) a.groups b.groups
      && Float.equal a.from_ b.from_
      && Float.equal a.until b.until
  | Delay a, Delay b ->
      Float.equal a.from_ b.from_
      && Float.equal a.until b.until
      && Float.equal a.max_delay b.max_delay
  | Duplicate a, Duplicate b ->
      a.src = b.src && a.dst = b.dst && Float.equal a.from_ b.from_
      && Float.equal a.until b.until
      && Float.equal a.prob b.prob
  | Reorder a, Reorder b ->
      a.src = b.src && a.dst = b.dst && Float.equal a.from_ b.from_
      && Float.equal a.until b.until
      && Float.equal a.prob b.prob
  | Corrupt a, Corrupt b ->
      a.src = b.src && a.dst = b.dst && Float.equal a.from_ b.from_
      && Float.equal a.until b.until
      && Float.equal a.prob b.prob
  | Truncate a, Truncate b ->
      a.src = b.src && a.dst = b.dst && Float.equal a.from_ b.from_
      && Float.equal a.until b.until
      && Float.equal a.prob b.prob
  | Reset a, Reset b -> a.dst = b.dst && Float.equal a.at b.at
  | Stall a, Stall b ->
      a.src = b.src && a.dst = b.dst && Float.equal a.from_ b.from_
      && Float.equal a.until b.until
  | ( ( Cut _ | Partition _ | Delay _ | Duplicate _ | Reorder _ | Corrupt _
      | Truncate _ | Reset _ | Stall _ ),
      _ ) ->
      false

let equal a b =
  String.equal a.name b.name
  && Int64.equal a.seed b.seed
  && Int.equal a.n b.n && Float.equal a.ts b.ts
  && Float.equal a.delta b.delta
  && Float.equal a.horizon b.horizon
  && List.equal equal_action a.actions b.actions

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let link_fields src dst from_ until =
  [
    ("src", Sim.Json.int src);
    ("dst", Sim.Json.int dst);
    ("from", Sim.Json.float from_);
    ("until", Sim.Json.float until);
  ]

let action_to_json = function
  | Cut { src; dst; from_; until } ->
      Sim.Json.Obj (("kind", Sim.Json.Str "cut") :: link_fields src dst from_ until)
  | Partition { groups; from_; until } ->
      Sim.Json.Obj
        [
          ("kind", Sim.Json.Str "partition");
          ( "groups",
            Sim.Json.Arr
              (List.map
                 (fun g -> Sim.Json.Arr (List.map Sim.Json.int g))
                 groups) );
          ("from", Sim.Json.float from_);
          ("until", Sim.Json.float until);
        ]
  | Delay { from_; until; max_delay } ->
      Sim.Json.Obj
        [
          ("kind", Sim.Json.Str "delay");
          ("from", Sim.Json.float from_);
          ("until", Sim.Json.float until);
          ("max_delay", Sim.Json.float max_delay);
        ]
  | Duplicate { src; dst; from_; until; prob } ->
      Sim.Json.Obj
        (("kind", Sim.Json.Str "duplicate")
        :: link_fields src dst from_ until
        @ [ ("prob", Sim.Json.float prob) ])
  | Reorder { src; dst; from_; until; prob } ->
      Sim.Json.Obj
        (("kind", Sim.Json.Str "reorder")
        :: link_fields src dst from_ until
        @ [ ("prob", Sim.Json.float prob) ])
  | Corrupt { src; dst; from_; until; prob } ->
      Sim.Json.Obj
        (("kind", Sim.Json.Str "corrupt")
        :: link_fields src dst from_ until
        @ [ ("prob", Sim.Json.float prob) ])
  | Truncate { src; dst; from_; until; prob } ->
      Sim.Json.Obj
        (("kind", Sim.Json.Str "truncate")
        :: link_fields src dst from_ until
        @ [ ("prob", Sim.Json.float prob) ])
  | Reset { dst; at } ->
      Sim.Json.Obj
        [
          ("kind", Sim.Json.Str "reset");
          ("dst", Sim.Json.int dst);
          ("at", Sim.Json.float at);
        ]
  | Stall { src; dst; from_; until } ->
      Sim.Json.Obj
        (("kind", Sim.Json.Str "stall") :: link_fields src dst from_ until)

let to_json t =
  Sim.Json.Obj
    [
      ("format", Sim.Json.Str format_tag);
      ("name", Sim.Json.Str t.name);
      ("seed", Sim.Json.int64 t.seed);
      ("n", Sim.Json.int t.n);
      ("ts", Sim.Json.float t.ts);
      ("delta", Sim.Json.float t.delta);
      ("horizon", Sim.Json.float t.horizon);
      ("actions", Sim.Json.Arr (List.map action_to_json t.actions));
    ]

let field name f j = Result.bind (Sim.Json.member name j) f

let link_of_json j k =
  let* src = field "src" Sim.Json.to_int j in
  let* dst = field "dst" Sim.Json.to_int j in
  let* from_ = field "from" Sim.Json.to_float j in
  let* until = field "until" Sim.Json.to_float j in
  k ~src ~dst ~from_ ~until

let prob_link_of_json j k =
  link_of_json j (fun ~src ~dst ~from_ ~until ->
      let* prob = field "prob" Sim.Json.to_float j in
      k ~src ~dst ~from_ ~until ~prob)

let action_of_json j =
  let* kind = field "kind" Sim.Json.to_string j in
  match kind with
  | "cut" ->
      link_of_json j (fun ~src ~dst ~from_ ~until ->
          Ok (Cut { src; dst; from_; until }))
  | "stall" ->
      link_of_json j (fun ~src ~dst ~from_ ~until ->
          Ok (Stall { src; dst; from_; until }))
  | "partition" ->
      let* groups = field "groups" Sim.Json.to_list j in
      let* groups =
        List.fold_left
          (fun acc g ->
            let* acc = acc in
            let* items = Sim.Json.to_list g in
            let* members =
              List.fold_left
                (fun acc x ->
                  let* acc = acc in
                  let* i = Sim.Json.to_int x in
                  Ok (i :: acc))
                (Ok []) items
            in
            Ok (List.rev members :: acc))
          (Ok []) groups
        |> Result.map List.rev
      in
      let* from_ = field "from" Sim.Json.to_float j in
      let* until = field "until" Sim.Json.to_float j in
      Ok (Partition { groups; from_; until })
  | "delay" ->
      let* from_ = field "from" Sim.Json.to_float j in
      let* until = field "until" Sim.Json.to_float j in
      let* max_delay = field "max_delay" Sim.Json.to_float j in
      Ok (Delay { from_; until; max_delay })
  | "duplicate" ->
      prob_link_of_json j (fun ~src ~dst ~from_ ~until ~prob ->
          Ok (Duplicate { src; dst; from_; until; prob }))
  | "reorder" ->
      prob_link_of_json j (fun ~src ~dst ~from_ ~until ~prob ->
          Ok (Reorder { src; dst; from_; until; prob }))
  | "corrupt" ->
      prob_link_of_json j (fun ~src ~dst ~from_ ~until ~prob ->
          Ok (Corrupt { src; dst; from_; until; prob }))
  | "truncate" ->
      prob_link_of_json j (fun ~src ~dst ~from_ ~until ~prob ->
          Ok (Truncate { src; dst; from_; until; prob }))
  | "reset" ->
      let* dst = field "dst" Sim.Json.to_int j in
      let* at = field "at" Sim.Json.to_float j in
      Ok (Reset { dst; at })
  | k -> Error (Printf.sprintf "unknown action kind %S" k)

let of_json j =
  let* format = field "format" Sim.Json.to_string j in
  let* () =
    if String.equal format format_tag then Ok ()
    else Error (Printf.sprintf "unsupported schedule format %S" format)
  in
  let* name = field "name" Sim.Json.to_string j in
  let* seed = field "seed" Sim.Json.to_int64 j in
  let* n = field "n" Sim.Json.to_int j in
  let* ts = field "ts" Sim.Json.to_float j in
  let* delta = field "delta" Sim.Json.to_float j in
  let* horizon = field "horizon" Sim.Json.to_float j in
  let* actions = field "actions" Sim.Json.to_list j in
  let* actions =
    List.fold_left
      (fun acc a ->
        let* acc = acc in
        let* a = action_of_json a in
        Ok (a :: acc))
      (Ok []) actions
    |> Result.map List.rev
  in
  let t = { name; seed; n; ts; delta; horizon; actions } in
  let* () = validate t in
  Ok t

let entry_to_json t ~commands ~pipeline =
  match to_json t with
  | Sim.Json.Obj fields ->
      Sim.Json.Obj
        (fields
        @ [
            ("commands", Sim.Json.int commands);
            ("pipeline", Sim.Json.int pipeline);
          ])
  | j -> j

let entry_of_json j =
  let* t = of_json j in
  let positive name default =
    match Sim.Json.member_opt name j with
    | None -> Ok default
    | Some v -> (
        match Sim.Json.to_int v with
        | Ok i when i > 0 -> Ok i
        | Ok _ | Error _ ->
            Error (Printf.sprintf "%s must be a positive integer" name))
  in
  let* commands = positive "commands" 50_000 in
  let* pipeline = positive "pipeline" 128 in
  Ok (t, commands, pipeline)

let pp_action fmt = function
  | Cut { src; dst; from_; until } ->
      Format.fprintf fmt "cut %d->%d [%g,%g)" src dst from_ until
  | Partition { groups; from_; until } ->
      Format.fprintf fmt "partition {%s} [%g,%g)"
        (String.concat "|"
           (List.map
              (fun g -> String.concat "," (List.map string_of_int g))
              groups))
        from_ until
  | Delay { from_; until; max_delay } ->
      Format.fprintf fmt "delay<=%g [%g,%g)" max_delay from_ until
  | Duplicate { src; dst; from_; until; prob } ->
      Format.fprintf fmt "dup %d->%d p=%g [%g,%g)" src dst prob from_ until
  | Reorder { src; dst; from_; until; prob } ->
      Format.fprintf fmt "reorder %d->%d p=%g [%g,%g)" src dst prob from_ until
  | Corrupt { src; dst; from_; until; prob } ->
      Format.fprintf fmt "corrupt %d->%d p=%g [%g,%g)" src dst prob from_ until
  | Truncate { src; dst; from_; until; prob } ->
      Format.fprintf fmt "truncate %d->%d p=%g [%g,%g)" src dst prob from_
        until
  | Reset { dst; at } -> Format.fprintf fmt "reset %d @%g" dst at
  | Stall { src; dst; from_; until } ->
      Format.fprintf fmt "stall %d->%d [%g,%g)" src dst from_ until

let pp fmt t =
  Format.fprintf fmt "%s[n=%d ts=%g delta=%g horizon=%g seed=%Ld: %a]" t.name
    t.n t.ts t.delta t.horizon t.seed
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
       pp_action)
    t.actions
