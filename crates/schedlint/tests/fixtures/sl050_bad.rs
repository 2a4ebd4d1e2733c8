// Fixture: SL050 — wire-protocol drift, five ways at once: the
// dispatcher handles a verb the table forgot (QUIT), the table claims a
// verb with no arm (STOP), two reply heads the client never learned to
// parse (GONE; BUSY, which the client only prints and lists), and a
// form of PING the client sends that the PING arm never matches
// (`twice`).
pub const WIRE_VERBS: &[&str] = &["PING", "STOP"];

fn handle_line_into(line: &str, out: &mut String) {
    match line.split_whitespace().next().unwrap_or("") {
        "PING" => out.push_str("PONG\n"),
        "QUIT" => out.push_str("GONE 0\n"),
        _ => out.push_str("BUSY\n"),
    }
}

fn client(c: &mut Chan) {
    c.send("PING\n");
    c.send("PING twice\n");
    let line = c.read_line();
    if line.starts_with("PONG") {}
    let heads = ["BUSY", "PONG"];
    println!("{}", format!("{:<6}{}", "BUSY", heads.len()));
}
