//! The protocol-contract rules.
//!
//! Each rule is grounded in a bug class this repository has already paid
//! for dynamically (proptest shrinkage, golden-pin churn, hand-audited
//! "drifting literal" sweeps in PR 3); see `DESIGN.md` § "Static
//! contracts" for the rule-by-rule rationale and the division of labor
//! with `clippy.toml`'s `disallowed-methods` lane.

use crate::lexer::{matching_brace, Tok, TokKind};
use crate::{Finding, ParsedFile};

/// Machine-readable description of one rule.
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// Stable rule id, used in findings and allow pragmas.
    pub id: &'static str,
    /// One-line description (shown by `--list-rules`).
    pub what: &'static str,
}

/// Every rule the engine knows, including the meta rules that audit the
/// pragmas themselves.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "hash-order",
        what: "unordered containers (HashMap/HashSet/RandomState) in protocol code: \
               iteration order is platform-defined and breaks bit-identical determinism",
    },
    RuleInfo {
        id: "time-source",
        what: "wall-clock access (Instant/SystemTime) in protocol code: rounds are the \
               only clock the simulator recognizes",
    },
    RuleInfo {
        id: "entropy-source",
        what: "ambient entropy (thread_rng/OsRng/from_entropy/RandomState) in protocol \
               code: all randomness must be seeded",
    },
    RuleInfo {
        id: "encode-exhaustive",
        what: "every Msg variant must appear in Message::encode() and Message::decode(); \
               wildcard arms would silently mis-frame new variants on the wire",
    },
    RuleInfo {
        id: "drifting-literal",
        what: "pipeline-budget sites must derive thresholds from Msg::words() and \
               UNIT_WORDS, not re-state word counts as literals",
    },
    RuleInfo {
        id: "tag-guard",
        what: "every wire tag must be mirrored in node::TAG_GUARDS with its stage \
               census letter and next_wake guard",
    },
    RuleInfo {
        id: "panic-hygiene",
        what: "unwrap/expect/panic!/arithmetic indexing in the executor hot path needs \
               a reasoned allow",
    },
    RuleInfo {
        id: "unused-allow",
        what: "an allow pragma that suppresses nothing is itself an error (meta rule; \
               not suppressible)",
    },
    RuleInfo {
        id: "malformed-allow",
        what: "an allow pragma must match `dmst-analysis:allow(<rule>) -- <reason>` \
               (meta rule; not suppressible)",
    },
];

/// Is `id` a known (non-meta) rule an allow pragma may name?
pub fn is_known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id && r.id != "unused-allow" && r.id != "malformed-allow")
}

// ---------------------------------------------------------------------------
// Scope: which rules run where.
// ---------------------------------------------------------------------------

/// How a file participates in analysis, derived from its workspace-relative
/// path. Benches, examples, integration tests, vendored stubs, and the
/// analyzer itself are out of scope by construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// `crates/{core,congest,baselines}/src` and the umbrella `src/`: the
    /// protocol crates; every rule applies.
    Protocol,
    /// `crates/graphs/src`: determinism rules apply (generators feed the
    /// golden pins), bandwidth/tag rules do not.
    Graphs,
    /// Everything else: lexed (for cross-file facts) but no findings.
    Exempt,
}

/// Classifies a workspace-relative, `/`-separated path.
pub fn classify(path: &str) -> Scope {
    let protocol_roots =
        ["src/", "crates/core/src/", "crates/congest/src/", "crates/baselines/src/"];
    if protocol_roots.iter().any(|r| path.starts_with(r)) {
        Scope::Protocol
    } else if path.starts_with("crates/graphs/src/") {
        Scope::Graphs
    } else {
        Scope::Exempt
    }
}

// ---------------------------------------------------------------------------
// Per-file token rules.
// ---------------------------------------------------------------------------

const HASH_IDENTS: &[&str] = &["HashMap", "HashSet", "hash_map", "hash_set"];
const TIME_IDENTS: &[&str] = &["Instant", "SystemTime"];
const ENTROPY_IDENTS: &[&str] = &["thread_rng", "OsRng", "from_entropy", "RandomState"];

/// Runs every per-file rule over one parsed file.
pub fn check_file(f: &ParsedFile, findings: &mut Vec<Finding>) {
    if f.scope == Scope::Exempt {
        return;
    }
    determinism_rules(f, findings);
    if f.scope == Scope::Protocol {
        drifting_literal(f, findings);
        encode_rules(f, findings);
        if f.path.ends_with("/network.rs") {
            panic_hygiene(f, findings);
        }
    }
}

/// `hash-order` / `time-source` / `entropy-source`: forbidden identifiers.
fn determinism_rules(f: &ParsedFile, findings: &mut Vec<Finding>) {
    for (i, t) in f.tokens.iter().enumerate() {
        if f.test_mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        let rule = if HASH_IDENTS.contains(&t.text.as_str()) {
            "hash-order"
        } else if TIME_IDENTS.contains(&t.text.as_str()) {
            "time-source"
        } else if ENTROPY_IDENTS.contains(&t.text.as_str()) {
            "entropy-source"
        } else {
            continue;
        };
        findings.push(Finding {
            rule,
            path: f.path.clone(),
            line: t.line,
            msg: format!("`{}` is forbidden in protocol code (nondeterminism hazard)", t.text),
        });
    }
}

/// `drifting-literal`: a line that touches the pipeline budget must not
/// carry a numeric word count, and the unit size must come from
/// `UNIT_WORDS`, never a `<literal> * bandwidth` product (the exact drift
/// class PR 3 swept by hand).
fn drifting_literal(f: &ParsedFile, findings: &mut Vec<Finding>) {
    let mut lines: Vec<(u32, bool, bool, bool, bool)> = Vec::new(); // (line, pipe, band, star, int)
    for (i, t) in f.tokens.iter().enumerate() {
        if f.test_mask[i] {
            continue;
        }
        let entry = match lines.last_mut() {
            Some(e) if e.0 == t.line => e,
            _ => {
                lines.push((t.line, false, false, false, false));
                lines.last_mut().expect("just pushed")
            }
        };
        entry.1 |= t.is_ident("pipe_budget");
        entry.2 |= t.is_ident("bandwidth");
        entry.3 |= t.is_punct('*');
        entry.4 |= t.kind == TokKind::Num && t.int_value().is_some();
    }
    for (line, pipe, band, star, int) in lines {
        if pipe && int {
            findings.push(Finding {
                rule: "drifting-literal",
                path: f.path.clone(),
                line,
                msg: "budget threshold written as a literal; derive it from Msg::words()"
                    .to_string(),
            });
        } else if band && star && int {
            findings.push(Finding {
                rule: "drifting-literal",
                path: f.path.clone(),
                line,
                msg: "unit size re-stated as a literal next to `bandwidth`; use \
                      congest_sim::UNIT_WORDS"
                    .to_string(),
            });
        }
    }
}

/// `encode-exhaustive` over any file that defines `enum Msg`: every
/// variant must appear (as `Msg::V` or `Self::V`) in the bodies of both
/// `fn encode` and `fn decode`, and neither may use a `_ =>` wildcard
/// arm. A wildcard would let a new variant land silently mis-framed and
/// desynchronize every later message in the ring. (Named
/// catch-all bindings over the *tag word* in decode — `other =>
/// unreachable!(..)` — are fine: they reject, not absorb.)
fn encode_rules(f: &ParsedFile, findings: &mut Vec<Finding>) {
    let toks = &f.tokens;
    let Some(variants) = msg_enum_variants(toks, &f.test_mask) else { return };
    for fname in ["encode", "decode"] {
        let Some((open, close)) = fn_body_span(toks, &f.test_mask, fname) else {
            if let Some((_, line)) = variants.first() {
                findings.push(Finding {
                    rule: "encode-exhaustive",
                    path: f.path.clone(),
                    line: *line,
                    msg: format!("enum Msg has no Message::{fname}()"),
                });
            }
            continue;
        };
        for (v, line) in &variants {
            let mentioned = (open + 1..close).any(|i| {
                toks[i].is_ident(v)
                    && i >= 3
                    && (toks[i - 3].is_ident("Msg") || toks[i - 3].is_ident("Self"))
                    && toks[i - 2].is_punct(':')
                    && toks[i - 1].is_punct(':')
            });
            if !mentioned {
                findings.push(Finding {
                    rule: "encode-exhaustive",
                    path: f.path.clone(),
                    line: *line,
                    msg: format!("Msg::{v} never appears in Message::{fname}()"),
                });
            }
        }
        for i in open + 1..close {
            if toks[i].is_ident("_")
                && toks.get(i + 1).is_some_and(|t| t.is_punct('='))
                && toks.get(i + 2).is_some_and(|t| t.is_punct('>'))
            {
                findings.push(Finding {
                    rule: "encode-exhaustive",
                    path: f.path.clone(),
                    line: toks[i].line,
                    msg: format!(
                        "wildcard arm in {fname}() would silently cover future variants; \
                         list every variant explicitly"
                    ),
                });
            }
        }
    }
}

/// Token span `(open, close)` of the brace-delimited body of the first
/// non-test `fn <name>`.
fn fn_body_span(toks: &[Tok], mask: &[bool], name: &str) -> Option<(usize, usize)> {
    let fn_at = (0..toks.len().saturating_sub(1))
        .find(|&i| toks[i].is_ident("fn") && toks[i + 1].is_ident(name) && !mask[i])?;
    let open = (fn_at + 2..toks.len()).find(|&k| toks[k].is_punct('{'))?;
    Some((open, matching_brace(toks, open)))
}

/// Variant names (with lines) of `pub enum Msg { ... }`, if this file
/// defines one outside test code.
fn msg_enum_variants(toks: &[Tok], mask: &[bool]) -> Option<Vec<(String, u32)>> {
    let start = (0..toks.len().saturating_sub(1))
        .find(|&i| toks[i].is_ident("enum") && toks[i + 1].is_ident("Msg") && !mask[i])?;
    let open = (start + 2..toks.len()).find(|&k| toks[k].is_punct('{'))?;
    let close = matching_brace(toks, open);
    let mut variants = Vec::new();
    let mut i = open + 1;
    while i < close {
        let t = &toks[i];
        if t.is_punct('#') {
            // Variant attribute: skip the `[...]` group.
            if toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
                let mut depth = 0usize;
                i += 1;
                while i < close {
                    if toks[i].is_punct('[') {
                        depth += 1;
                    } else if toks[i].is_punct(']') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    i += 1;
                }
            }
        } else if t.kind == TokKind::Ident {
            variants.push((t.text.clone(), t.line));
            // Skip the payload (`{...}` or `(...)`) if present.
            if let Some(next) = toks.get(i + 1) {
                if next.is_punct('{') {
                    i = matching_brace(toks, i + 1);
                } else if next.is_punct('(') {
                    let mut depth = 0usize;
                    i += 1;
                    while i < close {
                        if toks[i].is_punct('(') {
                            depth += 1;
                        } else if toks[i].is_punct(')') {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        i += 1;
                    }
                }
            }
        }
        i += 1;
    }
    Some(variants)
}

/// `panic-hygiene` on executor files: `.unwrap()` / `.expect(...)`,
/// `panic!`-family macros, and indexing whose subscript does arithmetic
/// (the off-by-one-prone `[g - plo]` class) each need a reasoned allow.
fn panic_hygiene(f: &ParsedFile, findings: &mut Vec<Finding>) {
    let toks = &f.tokens;
    let mut push = |line: u32, msg: String| {
        findings.push(Finding { rule: "panic-hygiene", path: f.path.clone(), line, msg });
    };
    for i in 0..toks.len() {
        if f.test_mask[i] {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "unwrap" | "expect" if i > 0 && toks[i - 1].is_punct('.') => {
                push(t.line, format!("`.{}()` in the executor hot path", t.text));
            }
            "panic" | "unreachable" | "todo" | "unimplemented"
                if toks.get(i + 1).is_some_and(|n| n.is_punct('!')) =>
            {
                push(t.line, format!("`{}!` in the executor hot path", t.text));
            }
            _ => {}
        }
    }
    // Arithmetic indexing: `expr[... + ...]` / `expr[... - ...]` where the
    // `[` is a postfix subscript (previous token ends an expression).
    for i in 1..toks.len() {
        if f.test_mask[i] || !toks[i].is_punct('[') {
            continue;
        }
        let prev = &toks[i - 1];
        let is_subscript =
            prev.kind == TokKind::Ident && !prev.is_ident("mut") && !prev.is_ident("return")
                || prev.is_punct(')')
                || prev.is_punct(']');
        if !is_subscript {
            continue;
        }
        let mut depth = 0usize;
        let mut j = i;
        let mut arithmetic = false;
        while j < toks.len() {
            if toks[j].is_punct('[') {
                depth += 1;
            } else if toks[j].is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if toks[j].is_punct('+') || toks[j].is_punct('-') {
                arithmetic = true;
            }
            j += 1;
        }
        if arithmetic {
            push(
                toks[i].line,
                "arithmetic in an index expression on the executor hot path".to_string(),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Cross-file rule: tag-guard.
// ---------------------------------------------------------------------------

/// One `(tag, census letter, guard fn)` row parsed out of `TAG_GUARDS`.
#[derive(Clone, Debug)]
struct GuardRow {
    tag: String,
    letter: String,
    guard: String,
    line: u32,
}

/// `tag-guard`: cross-checks `Msg::tag()`'s wire tags against the
/// `TAG_GUARDS` table and the stage census letters of `fn stage_tag`.
pub fn check_tag_guards(files: &[ParsedFile], findings: &mut Vec<Finding>) {
    // Wire tags: string literals containing ':' inside `fn tag` of the file
    // that defines `enum Msg`.
    let mut tags: Vec<(String, u32, String)> = Vec::new(); // (tag, line, path)
    let mut enum_site: Option<(String, u32)> = None;
    for f in files {
        if f.scope != Scope::Protocol {
            continue;
        }
        if let Some(vars) = msg_enum_variants(&f.tokens, &f.test_mask) {
            if let Some((_, line)) = vars.first() {
                enum_site = Some((f.path.clone(), *line));
            }
            for (s, line) in fn_string_literals(&f.tokens, &f.test_mask, "tag") {
                if s.contains(':') && !tags.iter().any(|(t, _, _)| *t == s) {
                    tags.push((s, line, f.path.clone()));
                }
            }
        }
    }
    if tags.is_empty() {
        return; // nothing to mirror (fixture trees without a protocol)
    }

    // The table, the census letters, and the guard functions.
    let mut rows: Vec<GuardRow> = Vec::new();
    let mut table_site: Option<(String, u32)> = None;
    let mut letters: Vec<String> = Vec::new();
    let mut guard_fns: Vec<String> = Vec::new();
    for f in files {
        if f.scope == Scope::Exempt {
            continue;
        }
        if let Some((parsed, line)) = parse_tag_guards(&f.tokens, &f.test_mask) {
            table_site = Some((f.path.clone(), line));
            for (s, _) in fn_string_literals(&f.tokens, &f.test_mask, "stage_tag") {
                if s.len() == 1 {
                    letters.push(s);
                }
            }
            rows = parsed;
        }
        let toks = &f.tokens;
        for i in 0..toks.len().saturating_sub(1) {
            if toks[i].is_ident("fn") && toks[i + 1].kind == TokKind::Ident && !f.test_mask[i] {
                guard_fns.push(toks[i + 1].text.clone());
            }
        }
    }

    let Some((table_path, _)) = table_site else {
        let (path, line) = enum_site.expect("tags imply an enum site");
        findings.push(Finding {
            rule: "tag-guard",
            path,
            line,
            msg: "protocol defines wire tags but no TAG_GUARDS table mirrors them \
                  (expected `const TAG_GUARDS` next to the NodeProgram impl)"
                .to_string(),
        });
        return;
    };

    for (tag, line, path) in &tags {
        if !rows.iter().any(|r| r.tag == *tag) {
            findings.push(Finding {
                rule: "tag-guard",
                path: path.clone(),
                line: *line,
                msg: format!(
                    "wire tag \"{tag}\" is not mirrored in TAG_GUARDS; audit its census \
                     letter and next_wake guard, then add a row"
                ),
            });
        }
    }
    for r in &rows {
        if !tags.iter().any(|(t, _, _)| *t == r.tag) {
            findings.push(Finding {
                rule: "tag-guard",
                path: table_path.clone(),
                line: r.line,
                msg: format!("TAG_GUARDS row \"{}\" names a tag the protocol never sends", r.tag),
            });
            continue;
        }
        let prefix = r.tag.split(':').next().unwrap_or("");
        if prefix != r.letter {
            findings.push(Finding {
                rule: "tag-guard",
                path: table_path.clone(),
                line: r.line,
                msg: format!(
                    "TAG_GUARDS row \"{}\" claims census letter '{}' but the tag's stage \
                     prefix is \"{prefix}\"",
                    r.tag, r.letter
                ),
            });
        }
        if !letters.contains(&r.letter) {
            findings.push(Finding {
                rule: "tag-guard",
                path: table_path.clone(),
                line: r.line,
                msg: format!(
                    "census letter '{}' of TAG_GUARDS row \"{}\" is never returned by \
                     fn stage_tag",
                    r.letter, r.tag
                ),
            });
        }
        if !guard_fns.contains(&r.guard) {
            findings.push(Finding {
                rule: "tag-guard",
                path: table_path.clone(),
                line: r.line,
                msg: format!(
                    "next_wake guard `{}` of TAG_GUARDS row \"{}\" does not exist",
                    r.guard, r.tag
                ),
            });
        }
    }
}

/// String literals (with lines) inside the body of `fn <name>`.
fn fn_string_literals(toks: &[Tok], mask: &[bool], name: &str) -> Vec<(String, u32)> {
    let Some(fn_at) = (0..toks.len().saturating_sub(1))
        .find(|&i| toks[i].is_ident("fn") && toks[i + 1].is_ident(name) && !mask[i])
    else {
        return Vec::new();
    };
    let Some(open) = (fn_at + 2..toks.len()).find(|&k| toks[k].is_punct('{')) else {
        return Vec::new();
    };
    let close = matching_brace(toks, open);
    toks[open + 1..close]
        .iter()
        .filter(|t| t.kind == TokKind::Str)
        .map(|t| (t.text.clone(), t.line))
        .collect()
}

/// Parses `TAG_GUARDS: ... = &[ ("tag", 'x', "guard"), ... ]`.
fn parse_tag_guards(toks: &[Tok], mask: &[bool]) -> Option<(Vec<GuardRow>, u32)> {
    let at = (0..toks.len()).find(|&i| toks[i].is_ident("TAG_GUARDS") && !mask[i])?;
    let eq = (at + 1..toks.len()).find(|&k| toks[k].is_punct('='))?;
    let open = (eq + 1..toks.len()).find(|&k| toks[k].is_punct('['))?;
    let mut rows = Vec::new();
    let mut i = open + 1;
    let mut depth = 1usize;
    while i < toks.len() && depth > 0 {
        let t = &toks[i];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct('(') && depth == 1 {
            // Expect Str , Char , Str )
            let tag = toks.get(i + 1).filter(|t| t.kind == TokKind::Str);
            let letter = toks.get(i + 3).filter(|t| t.kind == TokKind::Char);
            let guard = toks.get(i + 5).filter(|t| t.kind == TokKind::Str);
            if let (Some(tag), Some(letter), Some(guard)) = (tag, letter, guard) {
                rows.push(GuardRow {
                    tag: tag.text.clone(),
                    letter: letter.text.clone(),
                    guard: guard.text.clone(),
                    line: tag.line,
                });
                i += 6;
            }
        }
        i += 1;
    }
    Some((rows, toks[at].line))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_file;

    fn protocol(path: &str, src: &str) -> ParsedFile {
        parse_file(path.to_string(), src)
    }

    #[test]
    fn classify_paths() {
        assert_eq!(classify("crates/core/src/msg.rs"), Scope::Protocol);
        assert_eq!(classify("src/testkit.rs"), Scope::Protocol);
        assert_eq!(classify("crates/graphs/src/generators.rs"), Scope::Graphs);
        assert_eq!(classify("crates/bench/src/lib.rs"), Scope::Exempt);
        assert_eq!(classify("crates/core/tests/smoke.rs"), Scope::Exempt);
        assert_eq!(classify("vendor/rand/src/lib.rs"), Scope::Exempt);
        assert_eq!(classify("crates/analysis/src/rules.rs"), Scope::Exempt);
    }

    #[test]
    fn hash_order_flags_and_test_code_exempt() {
        let f = protocol(
            "crates/core/src/x.rs",
            "use std::collections::HashMap;\n#[cfg(test)]\nmod tests { use std::collections::HashSet; }\n",
        );
        let mut out = Vec::new();
        check_file(&f, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "hash-order");
        assert_eq!(out[0].line, 1);
    }

    #[test]
    fn encode_exhaustive_missing_and_wildcard() {
        let src = r#"
pub enum Msg { A, B { x: u64 }, C }
impl Message for Msg {
    fn tag(&self) -> &'static str { "a:bfs" }
    fn encode(&self, w: &mut WireWriter<'_>) {
        match self {
            Msg::A => w.tag(0),
            Msg::B { x } => { w.tag(1); w.word(*x); }
            _ => w.tag(9),
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Self {
        match r.tag() {
            0 => Msg::A,
            1 => Msg::B { x: r.word() },
            other => unreachable!("bad tag {other}"),
        }
    }
}
"#;
        let f = protocol("crates/core/src/msg.rs", src);
        let mut out = Vec::new();
        check_file(&f, &mut out);
        let enc: Vec<_> = out.iter().filter(|f| f.rule == "encode-exhaustive").collect();
        // C misses both bodies, encode has a wildcard; the named `other`
        // catch-all over the decode tag word is NOT flagged.
        assert_eq!(enc.len(), 3, "{enc:#?}");
        assert_eq!(enc.iter().filter(|f| f.msg.contains("Msg::C")).count(), 2, "{enc:#?}");
        assert_eq!(enc.iter().filter(|f| f.msg.contains("wildcard")).count(), 1, "{enc:#?}");
        assert!(enc.iter().all(|f| !f.msg.contains("other")), "{enc:#?}");
    }

    #[test]
    fn encode_exhaustive_flags_missing_fns() {
        let src = r#"
pub enum Msg { A }
impl Message for Msg {
    fn tag(&self) -> &'static str { "a:bfs" }
}
"#;
        let f = protocol("crates/core/src/msg.rs", src);
        let mut out = Vec::new();
        check_file(&f, &mut out);
        let enc: Vec<_> = out.iter().filter(|f| f.rule == "encode-exhaustive").collect();
        assert_eq!(enc.len(), 2, "{enc:#?}");
        assert!(enc.iter().any(|f| f.msg.contains("no Message::encode()")), "{enc:#?}");
        assert!(enc.iter().any(|f| f.msg.contains("no Message::decode()")), "{enc:#?}");
    }

    #[test]
    fn drifting_literal_flags_pipe_budget_and_unit_size() {
        let src = "fn f(&self) {\n  if self.pipe_budget(r, p) >= 2 {}\n  let cap = 8 * self.cfg.bandwidth;\n}";
        let f = protocol("crates/core/src/node/mod.rs", src);
        let mut out = Vec::new();
        check_file(&f, &mut out);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|f| f.rule == "drifting-literal"));
        assert_eq!(out[0].line, 2);
        assert_eq!(out[1].line, 3);
    }

    #[test]
    fn drifting_literal_accepts_words_derived() {
        let src = "fn f(&self) { if self.pipe_budget(r, p) >= Msg::RegDone.words() {} \
                   let cap = UNIT_WORDS * self.cfg.bandwidth; }";
        let f = protocol("crates/core/src/node/mod.rs", src);
        let mut out = Vec::new();
        check_file(&f, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn panic_hygiene_only_in_network_rs() {
        let src = "fn f(x: Option<u32>, v: &[u32], i: usize) -> u32 { x.unwrap() + v[i + 1] }";
        let mut out = Vec::new();
        check_file(&protocol("crates/congest/src/network.rs", src), &mut out);
        assert_eq!(out.iter().filter(|f| f.rule == "panic-hygiene").count(), 2);
        out.clear();
        check_file(&protocol("crates/congest/src/stats.rs", src), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn tag_guard_happy_path() {
        let msg = r#"
pub enum Msg { A }
impl Message for Msg {
    fn tag(&self) -> &'static str { match self { Msg::A => "a:bfs" } }
}
"#;
        let node = r#"
pub(crate) const TAG_GUARDS: &[(&str, char, &str)] = &[("a:bfs", 'a', "next_wake")];
impl N {
    fn stage_tag(&self) -> &'static str { "a" }
    fn next_wake(&self) -> Option<u64> { None }
}
"#;
        let files = vec![
            protocol("crates/core/src/msg.rs", msg),
            protocol("crates/core/src/node/mod.rs", node),
        ];
        let mut out = Vec::new();
        check_tag_guards(&files, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn tag_guard_catches_drift() {
        let msg = r#"
pub enum Msg { A, B }
impl Message for Msg {
    fn tag(&self) -> &'static str { match self { Msg::A => "a:bfs", Msg::B => "b:new" } }
}
"#;
        // Table misses "b:new", has a stale row, a wrong letter, and a
        // missing guard fn.
        let node = r#"
pub(crate) const TAG_GUARDS: &[(&str, char, &str)] = &[
    ("a:bfs", 'b', "gone_fn"),
    ("z:stale", 'z', "next_wake"),
];
impl N {
    fn stage_tag(&self) -> &'static str { "a" }
    fn next_wake(&self) -> Option<u64> { None }
}
"#;
        let files = vec![
            protocol("crates/core/src/msg.rs", msg),
            protocol("crates/core/src/node/mod.rs", node),
        ];
        let mut out = Vec::new();
        check_tag_guards(&files, &mut out);
        let msgs: Vec<&str> = out.iter().map(|f| f.msg.as_str()).collect();
        assert!(msgs.iter().any(|m| m.contains("\"b:new\" is not mirrored")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("never sends")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("census letter 'b'")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("`gone_fn`")), "{msgs:?}");
    }
}
