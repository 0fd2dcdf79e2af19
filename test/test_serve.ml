(* Single-process loopback cluster: three replicas on 127.0.0.1 with
   port 0 (no free-port assumptions), each run on its own thread, driven
   by the blocking client.  Exercises the whole socket stack — framing,
   peer mesh, batching/pipelining, KV semantics, replication. *)

open Smr

let localhost = "127.0.0.1"

let delta = 0.02

let replica_config ?(batch = 16) ?(window = 16) ?snapshot ~cluster id =
  {
    (Replica.default_config ~id ~cluster) with
    delta;
    batch;
    window;
    seed = 7;
    snapshot =
      Option.map
        (fun dir -> Filename.concat dir (Printf.sprintf "r%d.snap" id))
        snapshot;
  }

let start_cluster ?batch ?window ?snapshot n =
  let cluster = Array.make n (localhost, 0) in
  let replicas =
    Array.init n (fun id ->
        Replica.create (replica_config ?batch ?window ?snapshot ~cluster id))
  in
  let ports = Array.map Replica.port replicas in
  Array.iter (fun r -> Replica.set_peer_ports r ports) replicas;
  let threads =
    Array.map (fun r -> Thread.create (fun () -> Replica.run r) ()) replicas
  in
  (replicas, ports, threads)

let stop_cluster replicas threads =
  Array.iter Replica.stop replicas;
  Array.iter Thread.join threads

let endpoints ports = Array.map (fun p -> (localhost, p)) ports

let test_kv_semantics () =
  let replicas, ports, threads = start_cluster 3 in
  Fun.protect
    ~finally:(fun () -> stop_cluster replicas threads)
    (fun () ->
      let c = Client.connect (endpoints ports) in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (match Client.get c "missing" with
          | Wire.R_value None -> ()
          | _ -> Alcotest.fail "get of a missing key should be absent");
          (match Client.put c ~key:"a" ~value:"1" with
          | Wire.R_stored -> ()
          | _ -> Alcotest.fail "put should be acknowledged");
          (match Client.get c "a" with
          | Wire.R_value (Some "1") -> ()
          | _ -> Alcotest.fail "get should see the put");
          (match Client.cas c ~key:"a" ~expect:(Some "1") ~set:"2" with
          | Wire.R_cas { ok = true; _ } -> ()
          | _ -> Alcotest.fail "matching cas should succeed");
          (match Client.cas c ~key:"a" ~expect:(Some "1") ~set:"3" with
          | Wire.R_cas { ok = false; actual = Some "2" } -> ()
          | _ -> Alcotest.fail "stale cas should fail with the live value");
          match Client.get c "a" with
          | Wire.R_value (Some "2") -> ()
          | _ -> Alcotest.fail "failed cas must not write"))

let test_pipelined_load_replicates () =
  let replicas, ports, threads = start_cluster 3 in
  Fun.protect
    ~finally:(fun () -> stop_cluster replicas threads)
    (fun () ->
      let c = Client.connect (endpoints ports) in
      let report =
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            Client.run_load c
              {
                Client.default_load with
                commands = 2_000;
                pipeline = 32;
                seed = 11;
              })
      in
      Alcotest.(check int) "all commands completed" 2_000
        report.Client.completed;
      Alcotest.(check bool) "made progress" true
        (report.Client.throughput > 0.);
      (* replication: every replica converges to the same chosen count *)
      let deadline = Unix.gettimeofday () +. 10. in
      let converged () =
        let counts = Array.map Replica.chosen_count replicas in
        Array.for_all (fun c -> c = counts.(0) && c > 0) counts
      in
      while (not (converged ())) && Unix.gettimeofday () < deadline do
        Thread.delay 0.05
      done;
      Alcotest.(check bool) "replicas converged on the chosen log" true
        (converged ()))

let test_client_batch_rejected () =
  (* the batch opcode is replica-internal (WIRE.md §5): a well-formed
     client batch request must be answered with an error reply, not
     admitted into the backlog — where the replica's own folding would
     nest it and crash the process (regression: REVIEW finding) *)
  let replicas, ports, threads = start_cluster 3 in
  Fun.protect
    ~finally:(fun () -> stop_cluster replicas threads)
    (fun () ->
      let c = Client.connect (endpoints ports) in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let batch =
            Command.Batch
              [
                Command.make ~id:1
                  (Command.Kv_put { key = "sneaky"; value = "1" });
                Command.make ~id:2
                  (Command.Kv_put { key = "sneakier"; value = "2" });
              ]
          in
          (* two in a row so a folded backlog of >= 2 would have nested *)
          (match Client.request c batch with
          | Wire.R_error _ -> ()
          | _ -> Alcotest.fail "client batch should be rejected");
          (match Client.request c batch with
          | Wire.R_error _ -> ()
          | _ -> Alcotest.fail "client batch should be rejected");
          (* the connection and the replica both survived the rejection *)
          (match Client.put c ~key:"after" ~value:"ok" with
          | Wire.R_stored -> ()
          | _ -> Alcotest.fail "put after rejected batch should succeed");
          (match Client.get c "after" with
          | Wire.R_value (Some "ok") -> ()
          | _ -> Alcotest.fail "get after rejected batch should succeed");
          match Client.get c "sneaky" with
          | Wire.R_value None -> ()
          | _ -> Alcotest.fail "rejected batch must not have been applied"))

let test_batching_counts () =
  (* with batch >> pipeline disabled (batch=1) every command is its own
     decree; with batching on, decrees are far fewer than commands *)
  let replicas, ports, threads = start_cluster ~batch:32 ~window:8 3 in
  Fun.protect
    ~finally:(fun () -> stop_cluster replicas threads)
    (fun () ->
      let c = Client.connect (endpoints ports) in
      let report =
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            Client.run_load c
              {
                Client.default_load with
                commands = 1_000;
                pipeline = 64;
                seed = 5;
              })
      in
      Alcotest.(check int) "all commands completed" 1_000
        report.Client.completed;
      let batches =
        Array.fold_left
          (fun acc r ->
            acc
            + Sim.Registry.counter_total (Replica.registry r) "serve_batches")
          0 replicas
      in
      Alcotest.(check bool)
        (Printf.sprintf "batching folds commands into decrees (%d batches)"
           batches)
        true
        (batches > 0 && batches < 1_000))

(* Netio peeks its earliest timer on every step to size the select
   timeout.  A timer armed after such a peek, with an earlier deadline,
   must still fire first — a queue whose floor advances on peek cannot
   hold it at all. *)
let test_netio_timer_order () =
  let loop = Realtime.Netio.create () in
  let fired = ref [] in
  Realtime.Netio.after loop 0.05 (fun () -> fired := "50 ms" :: !fired);
  Realtime.Netio.step loop 0.;
  Realtime.Netio.after loop 0.005 (fun () -> fired := "5 ms" :: !fired);
  let give_up = Realtime.Netio.now loop +. 2.0 in
  while List.length !fired < 2 && Realtime.Netio.now loop < give_up do
    Realtime.Netio.step loop 0.1
  done;
  Realtime.Netio.shutdown loop;
  Alcotest.(check (list string))
    "fired in deadline order" [ "5 ms"; "50 ms" ] (List.rev !fired)

(* Regression: a restarted replica numbered its commands from 0 again,
   so its first fresh command reused an id chosen before the restart and
   was dropped as a duplicate, never answered. *)
let test_restarted_replica_issues_fresh_ids () =
  let snapshot = Filename.temp_dir "serve-restart" "" in
  let replicas, ports, threads = start_cluster ~snapshot 3 in
  let stop () =
    stop_cluster replicas threads;
    Array.iter (fun f -> Sys.remove (Filename.concat snapshot f))
      (Sys.readdir snapshot);
    Sys.rmdir snapshot
  in
  Fun.protect ~finally:stop (fun () ->
      let put_via member key =
        let c = Client.connect [| (localhost, ports.(member)) |] in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            Client.request c (Command.Kv_put { key; value = key }))
      in
      (* settle a leader, then restart a replica that does not lead *)
      ignore (put_via 0 "warm" : Wire.reply);
      let victim = if Replica.is_leading replicas.(1) then 2 else 1 in
      for k = 1 to 5 do
        match put_via victim (Printf.sprintf "before%d" k) with
        | Wire.R_stored -> ()
        | _ -> Alcotest.fail "put before the restart should be stored"
      done;
      Replica.stop replicas.(victim);
      Thread.join threads.(victim);
      let cluster = Array.map (fun p -> (localhost, p)) ports in
      let r = Replica.create (replica_config ~snapshot ~cluster victim) in
      Replica.set_peer_ports r ports;
      replicas.(victim) <- r;
      threads.(victim) <- Thread.create (fun () -> Replica.run r) ();
      Alcotest.(check int) "restored from the snapshot" 1
        (let deadline = Realtime.Netio.wall () +. 5. in
         let restores () =
           Sim.Registry.counter_total (Replica.registry r) "serve_restores"
         in
         while restores () = 0 && Realtime.Netio.wall () < deadline do
           Thread.delay 0.01
         done;
         restores ());
      (match put_via victim "after" with
      | Wire.R_stored -> ()
      | _ -> Alcotest.fail "fresh put through the restarted replica");
      let c = Client.connect [| (localhost, ports.(victim)) |] in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          match Client.get c "after" with
          | Wire.R_value (Some "after") -> ()
          | _ -> Alcotest.fail "the restarted replica reads its fresh put"))

(* Netio batches output: one callback's 200 frames to one connection go
   out in a single write on the next pass, intact and in order, and no
   send writes on its own.  A send followed by close still delivers. *)
let test_netio_one_write_per_pass () =
  let loop = Realtime.Netio.create () in
  let reg = Sim.Registry.create () in
  Realtime.Netio.set_registry loop reg;
  let writes () = Sim.Registry.counter_total reg "netio_writes" in
  let frame k = Wire.to_bytes (Wire.Hello { sender = k }) in
  let accepted = ref 0 and writes_during_send = ref (-1) in
  let port =
    Realtime.Netio.listen loop ~host:localhost ~port:0 ~on_accept:(fun c ->
        incr accepted;
        if !accepted = 1 then begin
          for k = 0 to 199 do
            Realtime.Netio.send loop c (frame k)
          done;
          writes_during_send := writes ()
        end
        else begin
          Realtime.Netio.send loop c (frame 4242);
          Realtime.Netio.close loop c
        end)
  in
  let connect () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Realtime.Netio.resolve localhost, port));
    fd
  in
  (* step the loop until [n] bytes arrived or the peer closed *)
  let read_upto fd n =
    let buf = Bytes.create (n + 1) in
    let deadline = Realtime.Netio.now loop +. 5. in
    let rec go got =
      Realtime.Netio.step loop 0.01;
      match Unix.select [ fd ] [] [] 0. with
      | [], _, _ when Realtime.Netio.now loop < deadline -> go got
      | [], _, _ -> got
      | _ -> (
          match Unix.read fd buf got (n + 1 - got) with
          | 0 -> got
          | k -> if got + k >= n then got + k else go (got + k))
    in
    (buf, go 0)
  in
  let decode_all buf len =
    let rec go pos acc =
      if pos >= len then List.rev acc
      else
        match Wire.decode buf ~pos ~avail:(len - pos) with
        | Ok (Wire.Hello { sender }, used) -> go (pos + used) (sender :: acc)
        | Ok _ | Error _ -> Alcotest.fail "corrupt frame"
    in
    go 0 []
  in
  Fun.protect
    ~finally:(fun () -> Realtime.Netio.shutdown loop)
    (fun () ->
      let fd = connect () in
      let size = 200 * Bytes.length (frame 0) in
      let buf, got = read_upto fd size in
      Alcotest.(check int) "send makes no syscall" 0 !writes_during_send;
      Alcotest.(check (list int)) "200 frames, intact and in order"
        (List.init 200 Fun.id) (decode_all buf got);
      Alcotest.(check int) "one write for all 200" 1 (writes ());
      Unix.close fd;
      let fd = connect () in
      let buf, got = read_upto fd (Bytes.length (frame 0)) in
      Alcotest.(check (list int)) "send then close delivers" [ 4242 ]
        (decode_all buf got);
      Unix.close fd)

let suite =
  [
    Alcotest.test_case "kv semantics over the loopback cluster" `Quick
      test_kv_semantics;
    Alcotest.test_case "pipelined load completes and replicates" `Quick
      test_pipelined_load_replicates;
    Alcotest.test_case "client-submitted batch is rejected" `Quick
      test_client_batch_rejected;
    Alcotest.test_case "batching folds commands into decrees" `Quick
      test_batching_counts;
    Alcotest.test_case "netio timers fire in deadline order" `Quick
      test_netio_timer_order;
    Alcotest.test_case "netio writes once per connection per pass" `Quick
      test_netio_one_write_per_pass;
    Alcotest.test_case "restarted replica issues fresh command ids" `Quick
      test_restarted_replica_issues_fresh_ids;
  ]
