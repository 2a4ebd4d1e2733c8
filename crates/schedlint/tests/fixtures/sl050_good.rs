// Fixture: SL050 clean — table ⇔ arms, every client-sent verb has an
// arm, every keyword form sent is matched in its verb's arm and the
// reverse, every reply head has a client parse site.
pub const WIRE_VERBS: &[&str] = &["PING", "QUIT"];

fn handle_line_into(line: &str, out: &mut String) {
    let mut fields = line.split_whitespace();
    match fields.next().unwrap_or("") {
        "PING" => match fields.next() {
            Some("twice") => out.push_str("PONG\nPONG\n"),
            _ => out.push_str("PONG\n"),
        },
        "QUIT" => out.push_str("OK\n"),
        _ => out.push_str("OK\n"),
    }
}

fn client(c: &mut Chan) {
    c.send("PING\n");
    c.send("PING twice\n");
    c.send("QUIT\n");
    let line = c.read_line();
    match line.split_whitespace().collect::<Vec<_>>().as_slice() {
        ["PONG"] | ["OK"] => {}
        _ => {}
    }
}
