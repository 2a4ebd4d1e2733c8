//! SL050 — wire-protocol conformance.
//!
//! The text protocol is a contract between the server's one dispatcher
//! and every client: a verb the dispatcher answers that its table
//! forgot, a reply shape the client never learned to parse, or an `ERR`
//! reason nobody documented are all silent drift. SL050 audits the
//! contract from the code itself:
//!
//! 1. **Verb table.** The crate defining the dispatcher
//!    (`handle_line_into`) must also define a `WIRE_VERBS` const whose
//!    entries are exactly the dispatcher's match arms — the table the
//!    docs hang off.
//! 2. **One dispatcher.** No non-test code outside the dispatcher may
//!    match on a wire verb — a private second dispatcher is exactly
//!    the drift the one function exists to prevent.
//! 3. **Client emitted ⊆ server handled.** Every verb a client `send`s
//!    must be a dispatcher arm — and so must every *form* of it: a bare
//!    keyword after the verb in a sent frame (`POLL {pid} cpus wait …`,
//!    `STATS ALL`) must be a `Some("…")` pattern inside that verb's arm,
//!    and the reverse, so a suffix the client sends but the dispatcher
//!    lacks, or one the dispatcher matches and nothing sends, fails.
//! 4. **Server replies ⊆ client parsed.** Every reply head the
//!    dispatcher (or its same-file helpers, one level) emits via
//!    `push_str` must have a non-test parse site (slice pattern,
//!    `strip_prefix`, `starts_with`, `Some(…)` comparison).
//! 5. **ERR reasons catalogued.** Every `ERR <reason>` literal must
//!    appear backticked in the protocol catalog (DESIGN.md §11).
//! 6. **Sim protocol mapped.** Every `OP_<NAME>` opcode in `procctl`
//!    must correspond to a verb or reply head — the binary sim
//!    protocol and the text protocol must describe the same requests.
//!
//! The rule no-ops when no `handle_line_into` definition is in scope,
//! so fixtures and single-file unit tests opt in by defining one.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::Tok;
use crate::model::{FileModel, Func};
use crate::rules::{is_method, match_paren};
use crate::workspace::Config;
use crate::Diagnostic;

/// The dispatcher's required name.
const DISPATCH_FN: &str = "handle_line_into";
/// The verb table's required name.
const VERB_TABLE: &str = "WIRE_VERBS";

pub(crate) fn check(models: &[FileModel], config: &Config) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    // One dispatcher definition per crate drives the audit for that
    // crate; no definition anywhere → the rule is silent.
    let mut seen_crates = BTreeSet::new();
    for m in models {
        if let Some(f) = m.functions.iter().find(|f| f.name == DISPATCH_FN) {
            if m.in_tests(f.body_start) || !seen_crates.insert(m.crate_name.clone()) {
                continue;
            }
            audit_crate(models, m, f, config, &mut diags);
        }
    }
    diags.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    diags
}

#[allow(clippy::too_many_lines)]
fn audit_crate(
    models: &[FileModel],
    dm: &FileModel,
    df: &Func,
    config: &Config,
    diags: &mut Vec<Diagnostic>,
) {
    let krate = &dm.crate_name;
    let sl050 = |path: &str, line: u32, message: String| Diagnostic {
        rule: "SL050",
        path: path.to_string(),
        line,
        message,
    };

    // -- 1. Dispatcher arms vs the shared WIRE_VERBS table. ------------
    let verbs = arm_verbs(dm, df);
    let table = models
        .iter()
        .filter(|m| &m.crate_name == krate)
        .find_map(verb_table);
    match table {
        None => diags.push(sl050(
            &dm.path,
            df.line,
            format!(
                "`{DISPATCH_FN}` dispatches {} verbs but crate `{krate}` defines no \
                 `{VERB_TABLE}` const — hoist the verb set into the table the docs \
                 reference",
                verbs.len()
            ),
        )),
        Some((tpath, tline, listed)) => {
            for v in verbs.difference(&listed) {
                diags.push(sl050(
                    &tpath,
                    tline,
                    format!(
                        "`{DISPATCH_FN}` handles `{v}` but `{VERB_TABLE}` does not list \
                         it — the table no longer describes the dispatcher"
                    ),
                ));
            }
            for v in listed.difference(&verbs) {
                diags.push(sl050(
                    &tpath,
                    tline,
                    format!(
                        "`{VERB_TABLE}` lists `{v}` but `{DISPATCH_FN}` has no arm for \
                         it — a claimed verb the server answers `ERR malformed`"
                    ),
                ));
            }
        }
    }

    // -- 2. One dispatcher. --------------------------------------------
    for m in models.iter().filter(|m| &m.crate_name == krate) {
        for (i, t) in m.tokens.iter().enumerate() {
            let Tok::Literal(text) = &t.tok else { continue };
            let v = text.trim_matches('"');
            if !verbs.contains(v)
                || !arm_arrow(m, i)
                || m.in_tests(i)
                || (m.path == dm.path && i > df.body_start && i < df.body_end)
            {
                continue;
            }
            diags.push(sl050(
                &m.path,
                t.line,
                format!(
                    "match arm on wire verb `{v}` outside `{DISPATCH_FN}` — a second \
                     dispatcher reintroduces the drift the one handler exists to prevent"
                ),
            ));
        }
    }

    // -- 3. Client emissions ⊆ dispatcher verbs, and their keyword
    // forms = the arm's `Some("…")` patterns. ---------------------------
    let arm_forms = arm_keywords(dm, df, &verbs);
    let mut sent_forms: BTreeSet<(String, String)> = BTreeSet::new();
    for m in models.iter().filter(|m| &m.crate_name == krate) {
        for i in 0..m.tokens.len() {
            if !matches!(&m.tokens[i].tok, Tok::Ident(w) if w == "send")
                || !is_method(m, i)
                || !matches!(m.tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('(')))
                || m.in_tests(i)
            {
                continue;
            }
            let close = match_paren(m, i + 1);
            for j in i + 2..close.min(m.tokens.len()) {
                let Tok::Literal(text) = &m.tokens[j].tok else {
                    continue;
                };
                let Some(head) = caps_head(text) else {
                    continue;
                };
                if !verbs.contains(&head) {
                    diags.push(sl050(
                        &m.path,
                        m.tokens[j].line,
                        format!(
                            "client sends verb `{head}` but `{DISPATCH_FN}` has no arm \
                             for it — the server answers `ERR malformed` forever"
                        ),
                    ));
                    continue;
                }
                for kw in frame_keywords(text) {
                    if !arm_forms.contains_key(&(head.clone(), kw.clone())) {
                        diags.push(sl050(
                            &m.path,
                            m.tokens[j].line,
                            format!(
                                "client sends the `{kw}` form of `{head}` but the \
                                 dispatcher's `{head}` arm matches no `Some(\"{kw}\")` — \
                                 the server answers `ERR malformed` forever"
                            ),
                        ));
                    }
                    sent_forms.insert((head.clone(), kw));
                }
            }
        }
    }
    for ((verb, kw), line) in &arm_forms {
        if !sent_forms.contains(&(verb.clone(), kw.clone())) {
            diags.push(sl050(
                &dm.path,
                *line,
                format!(
                    "the dispatcher's `{verb}` arm matches the `{kw}` form but no \
                     client sends it — a form nothing speaks is untested surface"
                ),
            ));
        }
    }

    // -- 4. Reply heads ⊆ client parse sites; 5. ERR reasons. ----------
    let replies = reply_literals(dm, df);
    let parsed = parse_heads(models, krate);
    let mut heads_seen = BTreeSet::new();
    for (text, line) in &replies {
        let Some(head) = caps_head(text) else {
            continue;
        };
        if heads_seen.insert(head.clone()) && !parsed.contains(&head) {
            diags.push(sl050(
                &dm.path,
                *line,
                format!(
                    "server reply head `{head}` has no non-test parse site in crate \
                     `{krate}` — clients cannot consume this reply shape"
                ),
            ));
        }
        if head == "ERR" {
            if let Some(reason) = word_after(text, "ERR") {
                if !config.counter_doc.contains(&format!("`{reason}`")) {
                    diags.push(sl050(
                        &dm.path,
                        *line,
                        format!(
                            "ERR reason `{reason}` is missing from the {} protocol \
                             catalog — clients key downgrade behavior off these strings",
                            config.counter_doc_name
                        ),
                    ));
                }
            }
        }
    }

    // -- 6. Sim opcodes map into the text protocol. --------------------
    let mut heads: BTreeSet<String> = verbs.clone();
    heads.extend(heads_seen);
    let mut seen_ops = BTreeSet::new();
    for m in models.iter().filter(|m| m.crate_name == "procctl") {
        for (i, t) in m.tokens.iter().enumerate() {
            let Tok::Ident(w) = &t.tok else { continue };
            let Some(name) = w.strip_prefix("OP_") else {
                continue;
            };
            if name.is_empty() || m.in_tests(i) || !seen_ops.insert(name.to_string()) {
                continue;
            }
            if !heads.contains(name) {
                diags.push(sl050(
                    &m.path,
                    t.line,
                    format!(
                        "sim opcode `{w}` has no counterpart verb or reply head in the \
                         text protocol — the two protocols no longer describe the same \
                         requests"
                    ),
                ));
            }
        }
    }
}

/// True when the literal at `i` is a match-arm pattern: next tokens are
/// `=` `>`.
fn arm_arrow(m: &FileModel, i: usize) -> bool {
    matches!(m.tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('=')))
        && matches!(m.tokens.get(i + 2).map(|t| &t.tok), Some(Tok::Punct('>')))
}

/// The dispatcher's verb set: string-literal match arms in its body.
/// Tuple-pattern literals (`Some("cpus")`, `(Some("ALL"), None)`) are
/// not followed by `=>` and therefore excluded by construction.
fn arm_verbs(m: &FileModel, f: &Func) -> BTreeSet<String> {
    let mut verbs = BTreeSet::new();
    for i in f.body_start..f.body_end.min(m.tokens.len()) {
        if let Tok::Literal(text) = &m.tokens[i].tok {
            if arm_arrow(m, i) {
                let v = text.trim_matches('"');
                if !v.is_empty() {
                    verbs.insert(v.to_string());
                }
            }
        }
    }
    verbs
}

/// The keyword forms each verb's arm accepts: alphabetic literals in
/// `Some("…")` patterns between the verb's arm arrow and the next
/// verb's, keyed `(verb, keyword)` with the first line seen.
fn arm_keywords(
    m: &FileModel,
    f: &Func,
    verbs: &BTreeSet<String>,
) -> BTreeMap<(String, String), u32> {
    let mut forms = BTreeMap::new();
    let mut verb: Option<String> = None;
    for i in f.body_start..f.body_end.min(m.tokens.len()) {
        let Tok::Literal(text) = &m.tokens[i].tok else {
            continue;
        };
        let word = text.trim_matches('"');
        if arm_arrow(m, i) && verbs.contains(word) {
            verb = Some(word.to_string());
            continue;
        }
        let in_some = matches!(
            m.tokens.get(i.wrapping_sub(1)).map(|t| &t.tok),
            Some(Tok::Punct('('))
        ) && matches!(
            m.tokens.get(i.wrapping_sub(2)).map(|t| &t.tok),
            Some(Tok::Ident(w)) if w == "Some"
        );
        if let (Some(v), true, true) = (&verb, in_some, is_keyword(word)) {
            forms
                .entry((v.clone(), word.to_string()))
                .or_insert(m.tokens[i].line);
        }
    }
    forms
}

/// The bare keywords of a sent frame: the words after the verb that are
/// neither placeholders (`{pid}`) nor key-value fields (`cpus={list}`).
fn frame_keywords(literal: &str) -> Vec<String> {
    literal
        .trim_matches('"')
        .split_whitespace()
        .skip(1)
        .map(|w| w.strip_suffix("\\n").unwrap_or(w))
        .filter(|w| is_keyword(w))
        .map(str::to_string)
        .collect()
}

fn is_keyword(word: &str) -> bool {
    !word.is_empty() && word.chars().all(|c| c.is_ascii_alphabetic())
}

/// The `WIRE_VERBS` const's entries, with its site.
fn verb_table(m: &FileModel) -> Option<(String, u32, BTreeSet<String>)> {
    for (i, t) in m.tokens.iter().enumerate() {
        if !matches!(&t.tok, Tok::Ident(w) if w == VERB_TABLE) || m.in_tests(i) {
            continue;
        }
        // Scan past the `=` (skipping the `&[&str]` type's brackets) to
        // the initializer `[`, then collect its literals.
        let mut j = i + 1;
        while j < m.tokens.len() && !matches!(m.tokens[j].tok, Tok::Punct('=') | Tok::Punct(';')) {
            j += 1;
        }
        while j < m.tokens.len() && !matches!(m.tokens[j].tok, Tok::Punct('[') | Tok::Punct(';')) {
            j += 1;
        }
        if !matches!(m.tokens.get(j).map(|t| &t.tok), Some(Tok::Punct('['))) {
            continue;
        }
        let mut set = BTreeSet::new();
        let mut depth = 0isize;
        while j < m.tokens.len() {
            match &m.tokens[j].tok {
                Tok::Punct('[') => depth += 1,
                Tok::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                Tok::Literal(text) => {
                    set.insert(text.trim_matches('"').to_string());
                }
                _ => {}
            }
            j += 1;
        }
        if !set.is_empty() {
            return Some((m.path.clone(), t.line, set));
        }
    }
    None
}

/// Literals the dispatcher writes to its reply buffer (`push_str`
/// arguments, including through `format!`), plus the same from its
/// same-file free-function callees, one level deep.
fn reply_literals(m: &FileModel, df: &Func) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    let mut ranges = vec![(df.body_start, df.body_end)];
    let file_fns: BTreeMap<&str, &Func> =
        m.functions.iter().map(|f| (f.name.as_str(), f)).collect();
    for i in df.body_start..df.body_end.min(m.tokens.len()) {
        let Tok::Ident(w) = &m.tokens[i].tok else {
            continue;
        };
        if matches!(m.tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('('))) && !is_method(m, i)
        {
            if let Some(callee) = file_fns.get(w.as_str()) {
                if callee.name != df.name {
                    ranges.push((callee.body_start, callee.body_end));
                }
            }
        }
    }
    for (start, end) in ranges {
        for i in start..end.min(m.tokens.len()) {
            if !matches!(&m.tokens[i].tok, Tok::Ident(w) if w == "push_str")
                || !is_method(m, i)
                || !matches!(m.tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('(')))
            {
                continue;
            }
            let close = match_paren(m, i + 1);
            for j in i + 2..close.min(m.tokens.len()) {
                if let Tok::Literal(text) = &m.tokens[j].tok {
                    out.push((text.trim_matches('"').to_string(), m.tokens[j].line));
                }
            }
        }
    }
    out
}

/// Non-test reply-parse sites across the crate: an ALL-CAPS literal in
/// a slice pattern (`["OK", e] =>`, `let ["TRACE", …] = … else`) or as
/// the sole argument of `strip_prefix`/`starts_with`/`Some`/`eq`. A
/// literal in an array expression or a `format!` argument list is not
/// a parse site.
fn parse_heads(models: &[FileModel], krate: &str) -> BTreeSet<String> {
    const PARSE_FNS: &[&str] = &["strip_prefix", "starts_with", "Some", "eq"];
    let mut heads = BTreeSet::new();
    for m in models.iter().filter(|m| m.crate_name == krate) {
        for (i, t) in m.tokens.iter().enumerate() {
            let Tok::Literal(text) = &t.tok else { continue };
            if m.in_tests(i) {
                continue;
            }
            let Some(head) = caps_head(text) else {
                continue;
            };
            let ctx = match m.tokens.get(i.wrapping_sub(1)).map(|t| &t.tok) {
                Some(Tok::Punct('[')) | Some(Tok::Punct(',')) => in_slice_pattern(m, i),
                Some(Tok::Punct('(')) => matches!(
                    m.tokens.get(i.wrapping_sub(2)).map(|t| &t.tok),
                    Some(Tok::Ident(f)) if PARSE_FNS.contains(&f.as_str())
                ),
                _ => false,
            };
            if ctx {
                heads.insert(head);
            }
        }
    }
    heads
}

/// True when the token at `i` sits directly inside `[ … ]` whose `]` is
/// followed by `=` (`=>`, or `let [ … ] =`) or `|` (an or-pattern).
fn in_slice_pattern(m: &FileModel, i: usize) -> bool {
    let mut depth = 0usize;
    for j in i + 1..m.tokens.len() {
        match m.tokens[j].tok {
            Tok::Punct('(' | '[' | '{') => depth += 1,
            Tok::Punct(']') if depth == 0 => {
                return matches!(
                    m.tokens.get(j + 1).map(|t| &t.tok),
                    Some(Tok::Punct('=' | '|'))
                )
            }
            Tok::Punct(')' | '}') if depth == 0 => return false,
            Tok::Punct(')' | ']' | '}') => depth -= 1,
            _ => {}
        }
    }
    false
}

/// The literal's first word when it looks like a protocol head:
/// two-plus chars, ALL-CAPS (hyphens allowed). `"TARGET {t}…"` →
/// `TARGET`; format strings, key-value fragments, and prose return
/// `None`.
fn caps_head(literal: &str) -> Option<String> {
    let text = literal.trim_matches('"');
    let head: String = text
        .chars()
        .take_while(|c| c.is_ascii_uppercase() || *c == '-')
        .collect();
    let terminated = match text[head.len()..].chars().next() {
        None => true,
        Some(c) => c == ' ' || c == '\\',
    };
    (head.len() >= 2 && terminated).then_some(head)
}

/// The word after `prefix` in a reply literal, stripped of escapes:
/// `"ERR bad-nworkers\n"` → `bad-nworkers`.
fn word_after(literal: &str, prefix: &str) -> Option<String> {
    let text = literal.trim_matches('"');
    let rest = text.strip_prefix(prefix)?.trim_start();
    let word: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
        .collect();
    (!word.is_empty()).then_some(word)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Diagnostic> {
        let m = FileModel::parse("f.rs", "native-rt", src);
        check(&[m], &Config::for_tests())
    }

    const GOOD: &str = r#"
pub const WIRE_VERBS: &[&str] = &["PING", "QUIT"];
fn reply_malformed(out: &mut String) { out.push_str("ERR malformed\n"); }
fn handle_line_into(line: &str, out: &mut String) {
    let mut fields = line.split_whitespace();
    match fields.next().unwrap_or("") {
        "PING" => out.push_str("PONG\n"),
        "QUIT" => out.push_str("OK\n"),
        _ => reply_malformed(out),
    }
}
fn client(c: &mut C) {
    c.send("PING\n");
    let line = c.read_line();
    match line.split_whitespace().collect::<Vec<_>>().as_slice() {
        ["PONG"] => {}
        ["OK"] => {}
        ["ERR", ..] => {}
        _ => {}
    }
}
"#;

    #[test]
    fn no_dispatcher_means_silence() {
        let d = run("fn other() { let x = 1; }\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn conforming_protocol_is_clean_modulo_catalog() {
        let d = run(GOOD);
        // The only finding is the uncatalogued ERR reason — the test
        // config has an empty catalog.
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("ERR reason `malformed`"), "{d:?}");
        let mut cfg = Config::for_tests();
        cfg.counter_doc = "`malformed`".into();
        let m = FileModel::parse("f.rs", "native-rt", GOOD);
        let d = check(&[m], &cfg);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn missing_table_and_table_drift_fire() {
        let d = run(r#"
fn handle_line_into(line: &str, out: &mut String) {
    match line { "PING" => out.push_str("OK\n"), _ => {} }
}
fn client(c: &mut C) { c.send("PING\n"); if c.read_line().starts_with("OK") {} }
"#);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("no `WIRE_VERBS`"), "{d:?}");

        let d = run(r#"
pub const WIRE_VERBS: &[&str] = &["PING", "STOP"];
fn handle_line_into(line: &str, out: &mut String) {
    match line { "PING" => out.push_str("OK\n"), "QUIT" => out.push_str("OK\n"), _ => {} }
}
fn client(c: &mut C) { c.send("PING\n"); if c.read_line().starts_with("OK") {} }
"#);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().any(|d| d.message.contains("`QUIT`")), "{d:?}");
        assert!(d.iter().any(|d| d.message.contains("`STOP`")), "{d:?}");
    }

    #[test]
    fn rogue_dispatcher_and_unknown_emission_fire() {
        let d = run(r#"
pub const WIRE_VERBS: &[&str] = &["PING"];
fn handle_line_into(line: &str, out: &mut String) {
    match line { "PING" => out.push_str("OK\n"), _ => {} }
}
fn second_engine(line: &str, out: &mut String) {
    match line { "PING" => out.push_str("OK\n"), _ => {} }
}
fn client(c: &mut C) {
    c.send("PING\n");
    c.send("FLUSH now\n");
    if c.read_line().starts_with("OK") {}
}
"#);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(
            d.iter()
                .any(|d| d.message.contains("outside `handle_line_into`")),
            "{d:?}"
        );
        assert!(d.iter().any(|d| d.message.contains("`FLUSH`")), "{d:?}");
    }

    #[test]
    fn keyword_forms_must_match_both_ways() {
        let src = |arm: &str, sent: &str| {
            format!(
                r#"
pub const WIRE_VERBS: &[&str] = &["PING"];
fn handle_line_into(line: &str, out: &mut String) {{
    let mut fields = line.split_whitespace();
    match fields.next().unwrap_or("") {{
        "PING" => match (fields.next(), fields.next()) {{
            (Some(_), None) => out.push_str("OK\n"),
            {arm}
            _ => out.push_str("OK\n"),
        }},
        _ => {{}}
    }}
}}
fn client(c: &mut C, id: u32) {{
    c.send(&format!("PING {{id}}\n"));
    {sent}
    if c.read_line().starts_with("OK") {{}}
}}
"#
            )
        };
        let arm = r#"(Some(_), Some("loud")) => out.push_str("OK\n"),"#;
        let sent = r#"c.send(&format!("PING {id} loud\n"));"#;
        assert!(run(&src(arm, sent)).is_empty());
        // A suffix the client sends but the dispatcher lacks...
        let d = run(&src("", sent));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("sends the `loud` form"), "{d:?}");
        // ... and one the dispatcher matches and nothing sends.
        let d = run(&src(arm, ""));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("no client sends it"), "{d:?}");
        // Placeholders and key-value fields are not keywords.
        let d = run(&src("", r#"c.send(&format!("PING {id} vol={v}\n"));"#));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unparsed_reply_head_fires() {
        let d = run(r#"
pub const WIRE_VERBS: &[&str] = &["PING"];
fn handle_line_into(line: &str, out: &mut String) {
    match line { "PING" => out.push_str("GRANTED 1\n"), _ => {} }
}
fn client(c: &mut C) { c.send("PING\n"); let _ = c.read_line(); }
"#);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("`GRANTED`"), "{d:?}");
    }

    #[test]
    fn test_mod_parse_sites_do_not_count() {
        let d = run(r#"
pub const WIRE_VERBS: &[&str] = &["PING"];
fn handle_line_into(line: &str, out: &mut String) {
    match line { "PING" => out.push_str("PONG\n"), _ => {} }
}
fn client(c: &mut C) { c.send("PING\n"); let _ = c.read_line(); }
mod tests {
    fn parses() { assert!("PONG x".starts_with("PONG")); }
}
"#);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("`PONG`"), "{d:?}");
    }

    #[test]
    fn unmapped_sim_opcode_fires() {
        let server = FileModel::parse("s.rs", "native-rt", GOOD);
        let sim = FileModel::parse(
            "p.rs",
            "procctl",
            "pub const OP_PING: u8 = 1;\npub const OP_DRAIN: u8 = 9;\n",
        );
        let mut cfg = Config::for_tests();
        cfg.counter_doc = "`malformed`".into();
        let d = check(&[server, sim], &cfg);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("`OP_DRAIN`"), "{d:?}");
    }
}
