open Tpro_hw

exception Uncovered_flushable of string

type config = {
  colouring : bool;
  kernel_clone : bool;
  flush_on_switch : bool;
  pad_switch : bool;
  partition_irqs : bool;
  deterministic_delivery : bool;
}

let config_none =
  {
    colouring = false;
    kernel_clone = false;
    flush_on_switch = false;
    pad_switch = false;
    partition_irqs = false;
    deterministic_delivery = false;
  }

let config_full =
  {
    colouring = true;
    kernel_clone = true;
    flush_on_switch = true;
    pad_switch = true;
    partition_irqs = true;
    deterministic_delivery = true;
  }

let pp_config ppf c =
  let flag name b = if b then name else "no-" ^ name in
  Format.fprintf ppf "{%s %s %s %s %s %s}"
    (flag "colour" c.colouring)
    (flag "clone" c.kernel_clone)
    (flag "flush" c.flush_on_switch)
    (flag "pad" c.pad_switch)
    (flag "irq-part" c.partition_irqs)
    (flag "det-ipc" c.deterministic_delivery)

type core_state = {
  core : int;
  mutable sched : Sched.t option; (* None until a domain exists *)
  mutable current_dom : int;      (* index into [doms] *)
  mutable slice_start : int;
  mutable rr : int;               (* intra-domain round-robin cursor *)
}

type t = {
  m : Machine.t;
  cfg : config;
  alloc : Frame_alloc.t;
  shared_img : Kclone.image;
  images : (int, Kclone.image) Hashtbl.t; (* domain id -> image *)
  irq_ctl : Irq.t;
  eps : Ipc.t;
  mutable doms : Domain.t array;
  per_core : core_state array;
  mutable events_rev : Event.t list;
  mutable next_tid : int;
  mutable next_asid : int;
  mutable next_colour : int; (* next unassigned colour (colouring on) *)
  code_cursor : (int, int) Hashtbl.t; (* domain id -> next code vbase *)
}

let code_vbase_start = 0x0010_0000

let create ?machine_config ?machine ?(n_endpoints = 4) ?(n_irqs = 8) cfg =
  let m =
    match (machine, machine_config) with
    | None, _ ->
      Machine.create (Option.value machine_config ~default:Machine.default_config)
    | Some m, Some mc when mc <> Machine.config m ->
      invalid_arg "Kernel.create: ~machine has another configuration"
    | Some m, _ ->
      Machine.reset m;
      m
  in
  let machine_config = Machine.config m in
  if
    machine_config.Machine.l1_geom.Cache.line_bits
    <> machine_config.Machine.llc_geom.Cache.line_bits
  then invalid_arg "Kernel.create: L1 and LLC line sizes must agree";
  let n_colours = Machine.n_colours m in
  let alloc = Frame_alloc.create (Machine.mem m) ~n_colours in
  let line_bits = machine_config.Machine.llc_geom.Cache.line_bits in
  let shared_img = Kclone.boot alloc (Machine.mem m) ~line_bits in
  {
    m;
    cfg;
    alloc;
    shared_img;
    images = Hashtbl.create 8;
    irq_ctl = Irq.create ~n_irqs;
    eps = Ipc.create ~n_endpoints;
    doms = [||];
    per_core =
      Array.init (Machine.n_cores m) (fun core ->
          { core; sched = None; current_dom = -1; slice_start = 0; rr = 0 });
    events_rev = [];
    next_tid = 0;
    next_asid = 1;
    next_colour = 1; (* colour 0 is the kernel's *)
    code_cursor = Hashtbl.create 8;
  }

let machine t = t.m
let config t = t.cfg
let allocator t = t.alloc
let shared_image t = t.shared_img
let irqs t = t.irq_ctl
let domains t = Array.to_list t.doms
let domain t i = t.doms.(i)

let line_bits t = (Machine.config t.m).Machine.llc_geom.Cache.line_bits
let page_bits t = Machine.page_bits t.m
let n_colours t = Machine.n_colours t.m

let image_of_domain t (dom : Domain.t) =
  match Hashtbl.find_opt t.images dom.Domain.did with
  | Some img -> img
  | None -> t.shared_img

let record t e = t.events_rev <- e :: t.events_rev

let events t = List.rev t.events_rev

let last_event t =
  match t.events_rev with [] -> None | e :: _ -> Some e

let create_domain t ?(core = 0) ?(n_colours = 1) ~slice ~pad_cycles () =
  if core < 0 || core >= Machine.n_cores t.m then
    invalid_arg "Kernel.create_domain: core out of range";
  let total_colours = Machine.n_colours t.m in
  let colours =
    if t.cfg.colouring then begin
      if t.next_colour + n_colours > total_colours then
        failwith "Kernel.create_domain: out of page colours";
      let cs = List.init n_colours (fun i -> t.next_colour + i) in
      t.next_colour <- t.next_colour + n_colours;
      cs
    end
    else List.init total_colours (fun c -> c)
  in
  let did = Array.length t.doms in
  let dom =
    Domain.create ~did ~asid:t.next_asid ~colours ~slice ~pad_cycles ~core
      ~kernel_text_base:0
  in
  t.next_asid <- t.next_asid + 1;
  t.doms <- Array.append t.doms [| dom |];
  (if t.cfg.kernel_clone && t.cfg.colouring then
     let img =
       Kclone.clone t.alloc (Machine.mem t.m) ~line_bits:(line_bits t)
         ~shared:t.shared_img ~colours ~owner:did
     in
     Hashtbl.replace t.images did img);
  let cs = t.per_core.(core) in
  (match cs.sched with
  | None ->
    cs.sched <- Some (Sched.create [| did |]);
    cs.current_dom <- did;
    cs.slice_start <- Machine.now t.m ~core
  | Some s -> cs.sched <- Some (Sched.create (Array.append (Sched.order s) [| did |])));
  dom

(* Install a custom per-core scheduler order (replacing the default
   creation-order round-robin that [create_domain] accumulates).  The
   order is validated through [Sched.make] — empty or out-of-range
   orders are typed errors, caught at installation rather than mid-run —
   and every listed domain must actually be hosted on [core], since the
   switch path executes the incoming domain's threads on this core's
   clock. *)
let set_schedule t ~core order =
  if core < 0 || core >= Machine.n_cores t.m then
    invalid_arg "Kernel.set_schedule: core out of range";
  match Sched.make ~n_domains:(Array.length t.doms) order with
  | Error _ as e -> e
  | Ok s ->
    Array.iter
      (fun did ->
        if t.doms.(did).Domain.core <> core then
          invalid_arg
            (Printf.sprintf
               "Kernel.set_schedule: domain %d lives on core %d, not %d" did
               t.doms.(did).Domain.core core))
      order;
    let cs = t.per_core.(core) in
    cs.sched <- Some s;
    cs.current_dom <- Sched.current s;
    cs.slice_start <- Machine.now t.m ~core;
    cs.rr <- 0;
    Ok ()

let map_region t (dom : Domain.t) ~vbase ~pages =
  let pb = page_bits t in
  if vbase land ((1 lsl pb) - 1) <> 0 then
    invalid_arg "Kernel.map_region: vbase must be page-aligned";
  for i = 0 to pages - 1 do
    let vpn = (vbase lsr pb) + i in
    match Domain.translate dom vpn with
    | Some _ -> invalid_arg "Kernel.map_region: region already mapped"
    | None ->
      let frame =
        Frame_alloc.alloc_exn t.alloc ~owner:dom.Domain.did
          ~colours:dom.Domain.colours
      in
      Domain.map_page dom ~vpn ~pfn:frame
  done

(* Read-only sharing: map [owner]'s already-backed region into [guest]'s
   address space at [guest_vbase].  The frames keep their original owner
   and colour — which is precisely why sharing punches a hole in cache
   partitioning (Sect. 4.2: "even read-only sharing of code is
   sufficient for creating a channel"). *)
let share_region t ~(owner : Domain.t) ~(guest : Domain.t) ~vbase ~pages
    ~guest_vbase =
  let pb = page_bits t in
  if vbase land ((1 lsl pb) - 1) <> 0 || guest_vbase land ((1 lsl pb) - 1) <> 0
  then invalid_arg "Kernel.share_region: bases must be page-aligned";
  for i = 0 to pages - 1 do
    match Domain.translate owner ((vbase lsr pb) + i) with
    | None -> invalid_arg "Kernel.share_region: owner region not mapped"
    | Some pfn ->
      let guest_vpn = (guest_vbase lsr pb) + i in
      (match Domain.translate guest guest_vpn with
      | Some _ -> invalid_arg "Kernel.share_region: guest region already mapped"
      | None -> Domain.map_page guest ~vpn:guest_vpn ~pfn)
  done

let spawn ?regs t (dom : Domain.t) prog =
  let did = dom.Domain.did in
  let vbase =
    match Hashtbl.find_opt t.code_cursor did with
    | Some v -> v
    | None -> code_vbase_start
  in
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  let thread = Thread.create ?regs ~tid ~dom:did ~code_vbase:vbase prog in
  let pages = Thread.code_pages thread ~page_bits:(page_bits t) in
  map_region t dom ~vbase ~pages;
  Hashtbl.replace t.code_cursor did
    (vbase + (pages lsl page_bits t) + (1 lsl page_bits t));
  Domain.add_thread dom thread;
  thread

let set_irq_owner t ~irq ~dom =
  Irq.set_owner t.irq_ctl ~irq ~dom:dom.Domain.did

let vaddr_to_paddr t (dom : Domain.t) vaddr =
  let pb = page_bits t in
  match Domain.translate dom (vaddr lsr pb) with
  | None -> None
  | Some pfn -> Some ((pfn lsl pb) lor (vaddr land ((1 lsl pb) - 1)))

let current_domain t ~core =
  let cs = t.per_core.(core) in
  if cs.current_dom < 0 then invalid_arg "Kernel.current_domain: no domains";
  t.doms.(cs.current_dom)

let now t ~core = Machine.now t.m ~core

(* ------------------------------------------------------------------ *)
(* Kernel execution paths                                              *)

(* A trap's kernel work: fetch the handler's text window from the
   domain's kernel image, then touch every kernel global-data line in a
   fixed order (writes on even lines).  The data pass both models real
   handler work and re-establishes a canonical cache state for the shared
   global data — the determinism Case 2a relies on. *)
let kernel_path t ~core (dom : Domain.t) kind =
  let img = image_of_domain t dom in
  let { Kclone.first_line; n_lines } = Kclone.path_of_kind kind in
  let owner = Kclone.owner img in
  let cost = ref 0 in
  for i = first_line to first_line + n_lines - 1 do
    cost := !cost + Machine.fetch_paddr t.m ~core ~owner (Kclone.text_line img i)
  done;
  for i = 0 to Kclone.data_lines - 1 do
    cost :=
      !cost
      + Machine.touch_paddr t.m ~core ~owner:Cache.shared_owner
          ~write:(i land 1 = 0) (Kclone.data_line img i)
  done;
  !cost

let live_thread_exists (dom : Domain.t) =
  List.exists
    (fun th -> th.Thread.state <> Thread.Halted)
    (Domain.threads dom)

(* ------------------------------------------------------------------ *)
(* Domain switch (Sect. 4.2): kernel entry on the outgoing domain's
   image, core-local flush, kernel exit on the incoming image, then
   padding to the deadline determined by the outgoing domain. *)

let do_switch t (cs : core_state) reason =
  let from_dom = t.doms.(cs.current_dom) in
  let core = cs.core in
  (* The Cock et al. discipline: an idle domain still occupies the core
     until its slice boundary, making the switch time policy-determined. *)
  let reason =
    match reason with
    | Event.Idle when t.cfg.deterministic_delivery ->
      let (_ : int) =
        Machine.wait_until t.m ~core (cs.slice_start + from_dom.Domain.slice)
      in
      Event.Idle
    | r -> r
  in
  let start = Machine.now t.m ~core in
  let (_ : int) = kernel_path t ~core from_dom "switch" in
  let flush_cycles =
    if t.cfg.flush_on_switch then begin
      let cycles, reports = Machine.flush_core_local_report t.m ~core in
      (* The registry is the kernel's flush obligation: every resource the
         machine registers as flushable must appear in the report, so the
         padded switch provably resets all of them — including any added
         after this code was written. *)
      List.iter
        (fun name ->
          if not (List.mem_assoc name reports) then
            raise (Uncovered_flushable name))
        (Machine.flushable_names t.m ~core);
      cycles
    end
    else 0
  in
  let sched =
    match cs.sched with Some s -> s | None -> assert false
  in
  let next = Sched.advance sched in
  let to_dom = t.doms.(next) in
  let (_ : int) = kernel_path t ~core to_dom "switch_exit" in
  let padded, overrun =
    if not t.cfg.pad_switch then (false, false)
    else begin
      let deadline =
        match reason with
        | Event.Timer -> cs.slice_start + from_dom.Domain.slice + from_dom.Domain.pad_cycles
        | Event.Idle ->
          if t.cfg.deterministic_delivery then
            cs.slice_start + from_dom.Domain.slice + from_dom.Domain.pad_cycles
          else start + from_dom.Domain.pad_cycles
      in
      let before = Machine.now t.m ~core in
      let (_ : int) = Machine.wait_until t.m ~core deadline in
      (true, before > deadline)
    end
  in
  let finish = Machine.now t.m ~core in
  record t
    (Event.Switch
       {
         core;
         from_dom = from_dom.Domain.did;
         to_dom = to_dom.Domain.did;
         reason;
         slice_start = cs.slice_start;
         start;
         finish;
         flush_cycles;
         padded;
         overrun;
       });
  cs.current_dom <- next;
  cs.slice_start <- finish;
  cs.rr <- 0

(* ------------------------------------------------------------------ *)
(* Instruction execution                                               *)

let deliver t ~ep ~(sender : Thread.t) ~(receiver : Thread.t) ~msg ~at =
  receiver.Thread.msg <- msg;
  Thread.observe receiver (Event.Recv msg);
  receiver.Thread.state <- Thread.Ready;
  record t
    (Event.Ipc_delivered
       {
         ep;
         sender_dom = sender.Thread.dom;
         receiver_dom = receiver.Thread.dom;
         at;
       })

let do_syscall t ~core (dom : Domain.t) (th : Thread.t) sc =
  let kind =
    match sc with
    | Program.Sys_null -> "null"
    | Program.Sys_info -> "info"
    | Program.Sys_send _ -> "send"
    | Program.Sys_recv _ -> "recv"
    | Program.Sys_arm_irq _ -> "arm_irq"
  in
  let start = Machine.now t.m ~core in
  let cycles = kernel_path t ~core dom kind in
  (match sc with
  | Program.Sys_null | Program.Sys_info -> ()
  | Program.Sys_send { ep; msg } -> (
    match Ipc.queued_receiver t.eps ~ep with
    | Some receiver ->
      Ipc.clear_receiver t.eps ~ep;
      deliver t ~ep ~sender:th ~receiver ~msg ~at:(Machine.now t.m ~core)
    | None ->
      th.Thread.state <- Thread.Blocked_send ep;
      Ipc.queue_sender t.eps ~ep th ~msg)
  | Program.Sys_recv { ep } -> (
    match Ipc.queued_sender t.eps ~ep with
    | Some (sender, msg) ->
      Ipc.clear_sender t.eps ~ep;
      sender.Thread.state <- Thread.Ready;
      deliver t ~ep ~sender ~receiver:th ~msg ~at:(Machine.now t.m ~core)
    | None ->
      th.Thread.state <- Thread.Blocked_recv ep;
      Ipc.queue_receiver t.eps ~ep th)
  | Program.Sys_arm_irq { irq; delay } ->
    Irq.arm t.irq_ctl ~irq ~at:(Machine.now t.m ~core + delay));
  record t
    (Event.Trap
       { core; dom = dom.Domain.did; kind; start; cycles });
  th.Thread.pc <- th.Thread.pc + 1

let do_fault t ~core (dom : Domain.t) (th : Thread.t) vaddr =
  let (_ : int) = kernel_path t ~core dom "fault" in
  record t
    (Event.Fault
       {
         thread = th.Thread.tid;
         dom = dom.Domain.did;
         vaddr;
         at = Machine.now t.m ~core;
       });
  th.Thread.state <- Thread.Halted

let halt_thread t ~core (dom : Domain.t) (th : Thread.t) =
  th.Thread.state <- Thread.Halted;
  record t
    (Event.Thread_halted
       {
         thread = th.Thread.tid;
         dom = dom.Domain.did;
         at = Machine.now t.m ~core;
       })

let advance (th : Thread.t) =
  th.Thread.pc <- th.Thread.pc + 1;
  false

let fault t ~core dom th vaddr =
  do_fault t ~core dom th vaddr;
  true

(* Execute [th]'s next instruction; [true] iff it faulted. *)
let exec_body t ~core (dom : Domain.t) (th : Thread.t) =
  let translate = Domain.translate dom in
  let asid = dom.Domain.asid in
  let did = dom.Domain.did in
  let pc_vaddr = Thread.instr_vaddr th in
  match Machine.fetch t.m ~core ~asid ~domain:did ~translate pc_vaddr with
  | Error `Fault -> fault t ~core dom th pc_vaddr
  | Ok (_ : int) -> (
    let pc = th.Thread.pc in
    if pc < 0 || pc >= Array.length th.Thread.prog then begin
      halt_thread t ~core dom th;
      false
    end
    else
      let instr = th.Thread.prog.(pc) in
      match instr with
      | Program.Load v | Program.Store v -> (
        let write = match instr with Program.Store _ -> true | _ -> false in
        let access =
          if write then Machine.store else Machine.load
        in
        match access t.m ~core ~asid ~domain:did ~translate ~pc:pc_vaddr v with
        | Error `Fault -> fault t ~core dom th v
        | Ok (_ : int) -> advance th)
      | Program.Timed_load v -> (
        match
          Machine.load t.m ~core ~asid ~domain:did ~translate ~pc:pc_vaddr v
        with
        | Error `Fault -> fault t ~core dom th v
        | Ok cycles ->
          Thread.observe th (Event.Latency cycles);
          advance th)
      | Program.Clflush v -> (
        match Machine.flush_line t.m ~core ~asid ~translate v with
        | Error `Fault -> fault t ~core dom th v
        | Ok (_ : int) -> advance th)
      | Program.Compute n ->
        let (_ : int) = Machine.compute t.m ~core ~cycles:n in
        advance th
      | Program.Branch { tag; taken } ->
        let (_ : int) = Machine.branch t.m ~core ~pc:(tag * 4) ~taken in
        advance th
      | Program.Read_clock ->
        let (_ : int) = Machine.compute t.m ~core ~cycles:1 in
        Thread.observe th (Event.Clock (Machine.now t.m ~core));
        advance th
      | Program.Set (r, v) ->
        Thread.set_reg th r v;
        let (_ : int) = Machine.compute t.m ~core ~cycles:1 in
        advance th
      | Program.Add (rd, rs, imm) ->
        Thread.set_reg th rd (Thread.reg th rs + imm);
        let (_ : int) = Machine.compute t.m ~core ~cycles:1 in
        advance th
      | Program.Load_idx { base; index; scale }
      | Program.Store_idx { base; index; scale } -> (
        let v = base + (Thread.reg th index * scale) in
        let write =
          match instr with Program.Store_idx _ -> true | _ -> false
        in
        let access = if write then Machine.store else Machine.load in
        match access t.m ~core ~asid ~domain:did ~translate ~pc:pc_vaddr v with
        | Error `Fault -> fault t ~core dom th v
        | Ok (_ : int) -> advance th)
      | Program.Syscall sc ->
        do_syscall t ~core dom th sc;
        false
      | Program.Halt ->
        halt_thread t ~core dom th;
        false)

(* Faults and system calls enter the kernel: Case 2a; everything else is
   an ordinary user step: Case 1.  A step that raises still records its
   cost, under its instruction's kind, before the exception goes on. *)
let exec_instr t ~core (dom : Domain.t) (th : Thread.t) =
  let started = Machine.now t.m ~core in
  let pc = th.Thread.pc in
  let syscall =
    pc >= 0
    && pc < Array.length th.Thread.prog
    && match th.Thread.prog.(pc) with Program.Syscall _ -> true | _ -> false
  in
  match exec_body t ~core dom th with
  | faulted ->
    Thread.record_cost th
      (if syscall || faulted then Thread.Trap else Thread.User)
      (Machine.now t.m ~core - started)
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Thread.record_cost th
      (if syscall then Thread.Trap else Thread.User)
      (Machine.now t.m ~core - started);
    Printexc.raise_with_backtrace e bt

(* ------------------------------------------------------------------ *)
(* Interrupts                                                          *)

let irq_allowed t (cs : core_state) irq =
  let owner = Irq.owner t.irq_ctl irq in
  if owner < 0 || owner >= Array.length t.doms then false
  else
    let owner_dom = t.doms.(owner) in
    (* interrupts are routed to their owner's core *)
    owner_dom.Domain.core = cs.core
    && ((not t.cfg.partition_irqs) || owner = cs.current_dom)

let handle_irq t (cs : core_state) irq =
  let core = cs.core in
  let dom = t.doms.(cs.current_dom) in
  let at = Machine.now t.m ~core in
  let cycles = kernel_path t ~core dom "irq" in
  record t
    (Event.Irq_handled
       {
         core;
         irq;
         owner_dom = Irq.owner t.irq_ctl irq;
         during_dom = dom.Domain.did;
         at;
         cycles;
       })

(* ------------------------------------------------------------------ *)
(* Top-level stepping                                                  *)

let core_live t (cs : core_state) =
  cs.sched <> None
  && (Array.exists
        (fun (d : Domain.t) -> d.Domain.core = cs.core && live_thread_exists d)
        t.doms
     || List.exists
          (fun (_, irq) ->
            let o = Irq.owner t.irq_ctl irq in
            o >= 0
            && o < Array.length t.doms
            && t.doms.(o).Domain.core = cs.core)
          (Irq.pending t.irq_ctl))

let pick_core t =
  let best = ref None in
  Array.iter
    (fun cs ->
      if core_live t cs then
        let now = Machine.now t.m ~core:cs.core in
        match !best with
        | Some (_, best_now) when best_now <= now -> ()
        | Some _ | None -> best := Some (cs, now))
    t.per_core;
  Option.map fst !best

(* Progress is impossible when no thread is ready anywhere and no armed
   interrupt can ever fire on a live core. *)
let can_progress t =
  Array.exists
    (fun (d : Domain.t) -> List.exists Thread.runnable (Domain.threads d))
    t.doms
  || List.exists
       (fun (_, irq) ->
         let o = Irq.owner t.irq_ctl irq in
         o >= 0 && o < Array.length t.doms)
       (Irq.pending t.irq_ctl)

let all_halted t =
  Array.for_all (fun d -> not (live_thread_exists d)) t.doms

(* Round robin: the first runnable thread from the cursor on, wrapping
   once; the cursor moves past it. *)
let rec first_runnable (cs : core_state) threads ~n k =
  if k >= n then None
  else
    let i = (cs.rr + k) mod n in
    let th = List.nth threads i in
    if Thread.runnable th then begin
      cs.rr <- (i + 1) mod n;
      Some th
    end
    else first_runnable cs threads ~n (k + 1)

let next_runnable (cs : core_state) (dom : Domain.t) =
  let threads = Domain.threads dom in
  first_runnable cs threads ~n:(List.length threads) 0

let step t =
  if not (can_progress t) then false
  else
    match pick_core t with
    | None -> false
    | Some cs ->
      let core = cs.core in
      let dom = t.doms.(cs.current_dom) in
      let now = Machine.now t.m ~core in
      if now >= cs.slice_start + dom.Domain.slice then begin
        do_switch t cs Event.Timer;
        true
      end
      else begin
        match Irq.take_pending t.irq_ctl ~now ~allowed:(irq_allowed t cs) with
        | Some irq ->
          handle_irq t cs irq;
          true
        | None -> (
          match next_runnable cs dom with
          | Some th ->
            exec_instr t ~core dom th;
            true
          | None ->
            (* Domain idle: either hold the core to the slice boundary
               (deterministic delivery) or hand over immediately. *)
            if
              Sched.n_domains
                (match cs.sched with Some s -> s | None -> assert false)
              = 1
            then begin
              (* Sole domain on this core: roll the slice forward so armed
                 interrupts can still be delivered. *)
              let (_ : int) =
                Machine.wait_until t.m ~core (cs.slice_start + dom.Domain.slice)
              in
              cs.slice_start <- Machine.now t.m ~core;
              true
            end
            else begin
              do_switch t cs Event.Idle;
              true
            end)
      end

let run ?(max_steps = 1_000_000) ?(on_step = ignore) t =
  let rec go n = if n <= max_steps && step t then (on_step n; go (n + 1)) in
  go 1

let pp ppf t =
  Format.fprintf ppf "kernel %a: %d domains, %a" pp_config t.cfg
    (Array.length t.doms) Machine.pp t.m
