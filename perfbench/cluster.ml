(* A live cluster of Smr.Replica processes.

   Each replica is this benchmark's own executable started in replica
   mode, so the benchmark owns a probe channel into it: the child's
   stdin/stdout pipes, one request line and one reply line per probe.
   The configuration is the one `consensus_sim serve` and
   `./dev serve-smoke` use. *)

module Replica = Smr.Replica
module Wire = Smr.Wire

let delta = 0.02
let batch = 256
let window = 64
let snapshot_period = 0.05
let host = "127.0.0.1"

(* ------------------------------------------------------------------ *)
(* Child side: host one replica and answer probes                      *)
(* ------------------------------------------------------------------ *)

let check_unique r ~value_bytes ~n skip =
  let skipped = Hashtbl.create 16 in
  List.iter (fun i -> Hashtbl.replace skipped i ()) skip;
  let bad = ref 0 in
  for i = 0 to n - 1 do
    if not (Hashtbl.mem skipped i) then
      match Replica.kv_get r ("u" ^ string_of_int i) with
      | Some v when v = Chaos.Campaign.expected_value ~value_bytes i -> ()
      | Some _ | None -> incr bad
  done;
  !bad

let answer r line =
  let int = string_of_int in
  match String.split_on_char ' ' line with
  | [ "leading" ] -> if Replica.is_leading r then "1" else "0"
  | [ "chosen" ] -> int (Replica.chosen_count r)
  | [ "checksum" ] -> int (Replica.kv_checksum r)
  | [ "counter"; name ] ->
      int (Sim.Registry.counter_total (Replica.registry r) name)
  | [ "get"; key ] -> (
      match Replica.kv_get r key with Some v -> "=" ^ v | None -> "-")
  | "check_u" :: vb :: n :: skip ->
      int
        (check_unique r ~value_bytes:(int_of_string vb) ~n:(int_of_string n)
           (List.map int_of_string skip))
  | _ -> "?"

(* argv: replica <id> <port,port,...> <snapshot path> <seed> *)
let serve_child = function
  | [ id; ports; snapshot; seed ] ->
      let cluster =
        String.split_on_char ',' ports
        |> List.map (fun p -> (host, int_of_string p))
        |> Array.of_list
      in
      let cfg =
        {
          Replica.id = int_of_string id;
          cluster;
          bind = None;
          delta;
          batch;
          window;
          snapshot = Some snapshot;
          snapshot_period;
          seed = int_of_string seed;
          verbose = false;
        }
      in
      let r = Replica.create cfg in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Replica.stop r));
      let probe () =
        (try
           while true do
             let line = input_line stdin in
             print_string (answer r line);
             print_char '\n';
             flush stdout
           done
         with End_of_file | Sys_error _ -> ());
        (* the benchmark is gone: do not outlive it *)
        Replica.stop r
      in
      ignore (Thread.create probe () : Thread.t);
      Replica.run r;
      exit 0
  | _ ->
      prerr_endline "usage: main.exe replica ID PORTS SNAPSHOT SEED";
      exit 2

(* ------------------------------------------------------------------ *)
(* Parent side                                                         *)
(* ------------------------------------------------------------------ *)

type member = {
  id : int;
  port : int;
  snapshot : string;
  mutable pid : int;  (* -1 when not running *)
  mutable chan : (in_channel * out_channel) option;
  mutable peak_mb : float;  (* VmHWM, read before every stop *)
}

type t = {
  exe : string;
  seed : int;
  log : Unix.file_descr;
  members : member array;
  lock : Mutex.t;  (* probes come from two threads *)
}

(* every child ever started and not yet reaped, for the exit handler *)
let children : (int, unit) Hashtbl.t = Hashtbl.create 8

let reap pid =
  (try ignore (Unix.waitpid [] pid : int * Unix.process_status)
   with Unix.Unix_error _ -> ());
  Hashtbl.remove children pid

let kill_all_children () =
  let pids = Hashtbl.fold (fun pid () acc -> pid :: acc) children [] in
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    pids

let free_ports n =
  let socks =
    List.init n (fun _ ->
        let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        s)
  in
  let ports =
    List.map
      (fun s ->
        match Unix.getsockname s with
        | Unix.ADDR_INET (_, p) -> p
        | Unix.ADDR_UNIX _ -> failwith "free_ports: not an inet socket")
      socks
  in
  List.iter Unix.close socks;
  Array.of_list ports

let ports t = Array.map (fun m -> m.port) t.members

let size t = Array.length t.members

let alive t i = t.members.(i).pid > 0

let pid t i = t.members.(i).pid

let spawn t i =
  let m = t.members.(i) in
  let child_in, to_child = Unix.pipe ~cloexec:true () in
  let from_child, child_out = Unix.pipe ~cloexec:true () in
  let ports =
    String.concat "," (Array.to_list (Array.map string_of_int (ports t)))
  in
  let argv =
    [| t.exe; "replica"; string_of_int i; ports; m.snapshot;
       string_of_int t.seed |]
  in
  let pid = Unix.create_process t.exe argv child_in child_out t.log in
  Hashtbl.replace children pid ();
  Unix.close child_in;
  Unix.close child_out;
  m.pid <- pid;
  m.chan <-
    Some
      (Unix.in_channel_of_descr from_child, Unix.out_channel_of_descr to_child)

let create ~exe ~dir ~seed ~n =
  let ports = free_ports n in
  let log =
    Unix.openfile
      (Filename.concat dir "replicas.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ]
      0o644
  in
  let members =
    Array.init n (fun i ->
        let snapshot = Filename.concat dir (Printf.sprintf "r%d.snap" i) in
        if Sys.file_exists snapshot then Sys.remove snapshot;
        { id = i; port = ports.(i); snapshot; pid = -1; chan = None;
          peak_mb = 0. })
  in
  let t = { exe; seed; log; members; lock = Mutex.create () } in
  Array.iter (fun m -> spawn t m.id) members;
  t

let probe t i line =
  match t.members.(i).chan with
  | None -> None
  | Some (ic, oc) ->
      Mutex.lock t.lock;
      let reply =
        try
          output_string oc line;
          output_char oc '\n';
          flush oc;
          Some (input_line ic)
        with End_of_file | Sys_error _ -> None
      in
      Mutex.unlock t.lock;
      reply

let probe_int t i line =
  match probe t i line with Some s -> int_of_string_opt s | None -> None

let leading t i = probe t i "leading" = Some "1"

(* the lowest-id replica that believes it leads *)
let leader t =
  let rec find i =
    if i >= size t then None
    else if alive t i && leading t i then Some i
    else find (i + 1)
  in
  find 0

let note_peak t i =
  let m = t.members.(i) in
  match Procfs.peak_rss_mb m.pid with
  | Some mb -> m.peak_mb <- Float.max m.peak_mb mb
  | None -> ()

let close_chan m =
  (match m.chan with
  | Some (ic, oc) ->
      close_in_noerr ic;
      close_out_noerr oc
  | None -> ());
  m.chan <- None

let kill t i =
  let m = t.members.(i) in
  if m.pid > 0 then begin
    note_peak t i;
    (try Unix.kill m.pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap m.pid;
    close_chan m;
    m.pid <- -1
  end

(* SIGTERM every live replica, then wait for each (SIGKILL after 10 s) *)
let stop t =
  Array.iter
    (fun m ->
      if m.pid > 0 then begin
        note_peak t m.id;
        try Unix.kill m.pid Sys.sigterm with Unix.Unix_error _ -> ()
      end)
    t.members;
  Array.iter
    (fun m ->
      if m.pid > 0 then begin
        let deadline = Unix.gettimeofday () +. 10. in
        let rec wait () =
          match Unix.waitpid [ Unix.WNOHANG ] m.pid with
          | 0, _ when Unix.gettimeofday () < deadline ->
              Unix.sleepf 0.01;
              wait ()
          | 0, _ ->
              (try Unix.kill m.pid Sys.sigkill with Unix.Unix_error _ -> ());
              reap m.pid
          | _ -> Hashtbl.remove children m.pid
          | exception Unix.Unix_error _ -> Hashtbl.remove children m.pid
        in
        wait ();
        close_chan m;
        m.pid <- -1
      end)
    t.members;
  Unix.close t.log

let snapshot_mb t =
  Array.fold_left
    (fun acc m ->
      match Unix.stat m.snapshot with
      | st -> Float.max acc (float_of_int st.Unix.st_size /. 1e6)
      | exception Unix.Unix_error _ -> acc)
    0. t.members

(* ------------------------------------------------------------------ *)
(* One synchronous request on a connection of its own                  *)
(* ------------------------------------------------------------------ *)

let write_all fd b =
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd b !off (len - !off)
  done

(* Connect to [port], retrying until [deadline] (ns); then send [op] and
   wait for its reply.  [None] past the deadline. *)
let request ~port ~deadline op =
  let rec connect () =
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
    | () -> Some fd
    | exception Unix.Unix_error _ ->
        Unix.close fd;
        if Spans.now_ns () > deadline then None
        else begin
          Unix.sleepf 0.001;
          connect ()
        end
  in
  match connect () with
  | None -> None
  | Some fd ->
      let result =
        try
          Unix.setsockopt fd Unix.TCP_NODELAY true;
          let out = Buffer.create 64 in
          Wire.encode out (Wire.Hello { sender = -1 });
          Wire.encode out
            (Wire.Request { seq = 0; cmd = Smr.Command.make ~id:0 op });
          write_all fd (Buffer.to_bytes out);
          let buf = Bytes.create 4096 in
          let rec await len =
            match Wire.decode buf ~pos:0 ~avail:len with
            | Ok (Wire.Response { seq = 0; reply }, _) -> Some reply
            | Ok _ | Error (`Error _) -> None
            | Error `Need_more ->
                let left = float_of_int (deadline - Spans.now_ns ()) /. 1e9 in
                if left <= 0. then None
                else (
                  match Unix.select [ fd ] [] [] left with
                  | [], _, _ -> None
                  | _ -> (
                      match Unix.read fd buf len (Bytes.length buf - len) with
                      | 0 -> None
                      | k -> await (len + k)))
          in
          await 0
        with Unix.Unix_error _ -> None
      in
      Unix.close fd;
      result
