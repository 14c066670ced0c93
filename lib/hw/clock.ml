type t = { mutable now : int }

let create () = { now = 0 }

let now t = t.now

let reset t = t.now <- 0

let advance t c =
  if c < 0 then invalid_arg "Clock.advance: negative cycles";
  t.now <- t.now + c

let wait_until t deadline =
  if deadline <= t.now then 0
  else begin
    let waited = deadline - t.now in
    t.now <- deadline;
    waited
  end

let pp ppf t = Format.fprintf ppf "t=%d" t.now
