// Fixture: SL050 — wire-protocol drift, four ways at once: the
// dispatcher handles a verb the table forgot (QUIT), the table claims a
// verb with no arm (STOP), a reply head the client never learned to
// parse (GONE), and a form of PING the client sends that the PING arm
// never matches (`twice`).
pub const WIRE_VERBS: &[&str] = &["PING", "STOP"];

fn handle_line_into(line: &str, out: &mut String) {
    match line.split_whitespace().next().unwrap_or("") {
        "PING" => out.push_str("PONG\n"),
        "QUIT" => out.push_str("GONE 0\n"),
        _ => {}
    }
}

fn client(c: &mut Chan) {
    c.send("PING\n");
    c.send("PING twice\n");
    let line = c.read_line();
    if line.starts_with("PONG") {}
}
