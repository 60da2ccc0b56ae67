//! A hand-rolled token-level Rust source stripper.
//!
//! The scanner's rules are substring patterns over *code*, so the lexer's
//! whole job is to blank out everything that is not code — line comments,
//! (nested) block comments, string/char/byte literals, raw strings — while
//! preserving the byte layout, so every match position in the stripped
//! text is also its position in the original file. Comments are kept
//! separately (with their line numbers) because two rules read them:
//! suppression markers (`// lint: allow(...)`, `// lint: sorted`) and
//! `// SAFETY:` justifications for the unsafe inventory.
//!
//! No `syn`, no proc-macro machinery: the workspace is scanned offline and
//! the rules only need lexical structure, not a parse tree.

/// One comment with the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line number of the comment's first character.
    pub line: usize,
    /// Comment text including its `//` / `/*` introducer.
    pub text: String,
}

/// A source file with non-code bytes blanked out.
#[derive(Debug, Clone)]
pub struct Stripped {
    /// The source with comments and literal contents replaced by spaces.
    /// Newlines are preserved, so byte/line positions match the original.
    pub code: String,
    /// Every comment, in file order.
    pub comments: Vec<Comment>,
}

impl Stripped {
    /// All comments that start on `line` (1-based).
    pub fn comments_on(&self, line: usize) -> impl Iterator<Item = &Comment> {
        self.comments.iter().filter(move |c| c.line == line)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Code,
    LineComment,
    /// Nested depth.
    BlockComment(u32),
    Str,
    /// Number of `#` in the delimiter.
    RawStr(u32),
    /// Char literal: remaining significant chars until the closing quote.
    Char,
}

/// Strips `source`, blanking comments and literal contents.
pub fn strip(source: &str) -> Stripped {
    let bytes = source.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut comments: Vec<Comment> = Vec::new();
    let mut state = State::Code;
    let mut line = 1usize;
    let mut comment_start_line = 0usize;
    let mut comment_text = String::new();
    let mut i = 0usize;

    // Pushes a blank (or the newline) for a non-code byte.
    fn blank(out: &mut Vec<u8>, b: u8) {
        out.push(if b == b'\n' { b'\n' } else { b' ' });
    }

    while i < bytes.len() {
        let b = bytes[i];
        if b == b'\n' {
            line += 1;
        }
        match state {
            State::Code => {
                if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
                    state = State::LineComment;
                    comment_start_line = line;
                    comment_text.clear();
                    comment_text.push_str("//");
                    blank(&mut out, b);
                    blank(&mut out, bytes[i + 1]);
                    i += 2;
                    continue;
                }
                if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(1);
                    comment_start_line = line;
                    comment_text.clear();
                    comment_text.push_str("/*");
                    blank(&mut out, b);
                    blank(&mut out, bytes[i + 1]);
                    i += 2;
                    continue;
                }
                // Raw strings: r"..." / r#"..."# / br#"..."# etc.
                if (b == b'r' || b == b'b') && !prev_is_ident(bytes, i) {
                    let mut j = i;
                    if bytes[j] == b'b' && bytes.get(j + 1) == Some(&b'r') {
                        j += 1;
                    }
                    if bytes[j] == b'r' {
                        let mut hashes = 0u32;
                        let mut k = j + 1;
                        while bytes.get(k) == Some(&b'#') {
                            hashes += 1;
                            k += 1;
                        }
                        if bytes.get(k) == Some(&b'"') {
                            // Keep the introducer as code (it is ident-like
                            // and harmless), blank from the quote on.
                            out.extend_from_slice(&bytes[i..k]);
                            blank(&mut out, b'"');
                            state = State::RawStr(hashes);
                            i = k + 1;
                            continue;
                        }
                    }
                }
                // Byte strings / byte chars: b"..." / b'x'.
                if b == b'b' && !prev_is_ident(bytes, i) {
                    match bytes.get(i + 1) {
                        Some(&b'"') => {
                            out.push(b'b');
                            blank(&mut out, b'"');
                            state = State::Str;
                            i += 2;
                            continue;
                        }
                        Some(&b'\'') => {
                            out.push(b'b');
                            blank(&mut out, b'\'');
                            state = State::Char;
                            i += 2;
                            continue;
                        }
                        _ => {}
                    }
                }
                if b == b'"' {
                    blank(&mut out, b);
                    state = State::Str;
                    i += 1;
                    continue;
                }
                if b == b'\'' {
                    // Lifetime (`'a`, `'_`, `'static`) or char literal?
                    // A char literal closes with a quote after one char or
                    // an escape; a lifetime never has a closing quote.
                    if is_char_literal(bytes, i) {
                        blank(&mut out, b);
                        state = State::Char;
                        i += 1;
                        continue;
                    }
                    // Lifetime: keep as code.
                }
                out.push(b);
                i += 1;
            }
            State::LineComment => {
                if b == b'\n' {
                    comments.push(Comment {
                        line: comment_start_line,
                        text: std::mem::take(&mut comment_text),
                    });
                    state = State::Code;
                    out.push(b'\n');
                } else {
                    comment_text.push(b as char);
                    blank(&mut out, b);
                }
                i += 1;
            }
            State::BlockComment(depth) => {
                if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(depth + 1);
                    comment_text.push_str("/*");
                    blank(&mut out, b);
                    blank(&mut out, bytes[i + 1]);
                    i += 2;
                    continue;
                }
                if b == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    comment_text.push_str("*/");
                    blank(&mut out, b);
                    blank(&mut out, bytes[i + 1]);
                    i += 2;
                    if depth == 1 {
                        comments.push(Comment {
                            line: comment_start_line,
                            text: std::mem::take(&mut comment_text),
                        });
                        state = State::Code;
                    } else {
                        state = State::BlockComment(depth - 1);
                    }
                    continue;
                }
                comment_text.push(b as char);
                blank(&mut out, b);
                i += 1;
            }
            State::Str => {
                if b == b'\\' && i + 1 < bytes.len() {
                    blank(&mut out, b);
                    blank(&mut out, bytes[i + 1]);
                    if bytes[i + 1] == b'\n' {
                        line += 1;
                    }
                    i += 2;
                    continue;
                }
                blank(&mut out, b);
                if b == b'"' {
                    state = State::Code;
                }
                i += 1;
            }
            State::RawStr(hashes) => {
                if b == b'"' {
                    let mut k = i + 1;
                    let mut seen = 0u32;
                    while seen < hashes && bytes.get(k) == Some(&b'#') {
                        seen += 1;
                        k += 1;
                    }
                    if seen == hashes {
                        for _ in i..k {
                            blank(&mut out, b' ');
                        }
                        state = State::Code;
                        i = k;
                        continue;
                    }
                }
                blank(&mut out, b);
                i += 1;
            }
            State::Char => {
                if b == b'\\' && i + 1 < bytes.len() {
                    blank(&mut out, b);
                    blank(&mut out, bytes[i + 1]);
                    if bytes[i + 1] == b'\n' {
                        line += 1;
                    }
                    i += 2;
                    continue;
                }
                blank(&mut out, b);
                if b == b'\'' {
                    state = State::Code;
                }
                i += 1;
            }
        }
    }
    // Flush a comment the file ended inside: a trailing line comment with
    // no final newline, or an unterminated block comment (invalid Rust,
    // but the suppression/SAFETY scans must still see the text).
    if matches!(state, State::LineComment | State::BlockComment(_)) {
        comments.push(Comment {
            line: comment_start_line,
            text: comment_text,
        });
    }

    Stripped {
        code: String::from_utf8_lossy(&out).into_owned(),
        comments,
    }
}

/// Whether the byte before `i` continues an identifier (so `r`/`b` here is
/// the tail of a name like `for_r`, not a literal prefix).
fn prev_is_ident(bytes: &[u8], i: usize) -> bool {
    i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_')
}

/// Distinguishes `'x'` / `'\n'` (char literal) from `'a` / `'static`
/// (lifetime) at a `'` in code position.
fn is_char_literal(bytes: &[u8], i: usize) -> bool {
    match bytes.get(i + 1) {
        Some(&b'\\') => true,
        Some(_) => {
            // `'c'` closes after exactly one (possibly multi-byte) char.
            let mut k = i + 2;
            while k < bytes.len() && bytes[k] & 0xC0 == 0x80 {
                k += 1; // skip UTF-8 continuation bytes
            }
            bytes.get(k) == Some(&b'\'')
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_comments_are_blanked_and_captured() {
        let s = strip("let x = 1; // HashMap here\nlet y = 2;\n");
        assert!(!s.code.contains("HashMap"));
        assert!(s.code.contains("let x = 1;"));
        assert_eq!(s.comments.len(), 1);
        assert_eq!(s.comments[0].line, 1);
        assert!(s.comments[0].text.contains("HashMap here"));
    }

    #[test]
    fn nested_block_comments_end_where_they_should() {
        let s = strip("a /* outer /* inner */ still */ b\n");
        assert!(s.code.contains('a'));
        assert!(s.code.contains('b'));
        assert!(!s.code.contains("inner"));
        assert!(!s.code.contains("still"));
        assert_eq!(s.comments.len(), 1);
    }

    #[test]
    fn strings_are_blanked_but_layout_is_preserved() {
        let src = "let s = \"SystemTime::now()\";\nlet t = 1;\n";
        let s = strip(src);
        assert!(!s.code.contains("SystemTime"));
        assert_eq!(s.code.len(), src.len());
        assert_eq!(s.code.lines().count(), src.lines().count());
    }

    #[test]
    fn raw_strings_with_hashes_and_escapes() {
        let s = strip("let s = r#\"thread::spawn \"quoted\" \"#; spawn_ok();\n");
        assert!(!s.code.contains("thread::spawn"));
        assert!(s.code.contains("spawn_ok"));
    }

    #[test]
    fn lifetimes_survive_char_literals_do_not() {
        let s = strip("fn f<'a>(x: &'a str) { let c = 'q'; let n = '\\n'; }\n");
        assert!(s.code.contains("<'a>"));
        assert!(s.code.contains("&'a str"));
        assert!(!s.code.contains('q'));
    }

    #[test]
    fn byte_literals_are_blanked() {
        let s = strip("let b = b\"Instant::now\"; let c = b'x';\n");
        assert!(!s.code.contains("Instant"));
        assert!(!s.code.contains('x'));
    }

    #[test]
    fn escaped_quote_does_not_end_the_string() {
        let s = strip("let s = \"a\\\"b HashMap c\"; let after = 1;\n");
        assert!(!s.code.contains("HashMap"));
        assert!(s.code.contains("let after = 1;"));
    }

    // Regression battery: rule-trigger substrings inside raw strings and
    // nested block comments must never reach the stripped code, and code
    // after the construct must survive with its layout intact.

    #[test]
    fn trigger_inside_raw_string_does_not_fire() {
        let s = strip("let a = r#\"Instant::now\"#; let b = 1;\n");
        assert!(!s.code.contains("Instant"), "{}", s.code);
        assert!(s.code.contains("let b = 1;"));
    }

    #[test]
    fn multiline_raw_string_preserves_line_numbers() {
        let src = "let a = r#\"xx\nthread::spawn\nyy\"#;\nInstant::now();\n";
        let s = strip(src);
        assert!(!s.code.contains("thread::spawn"), "{}", s.code);
        assert_eq!(s.code.lines().count(), src.lines().count());
        assert!(
            s.code.lines().nth(3).unwrap().contains("Instant::now"),
            "code after the raw string keeps its line: {}",
            s.code
        );
        assert!(
            s.comments.is_empty(),
            "comment markers inside raw strings are text"
        );
    }

    #[test]
    fn raw_string_with_more_hashes_ignores_shorter_candidate_closes() {
        let s = strip("let a = r##\"a\"# Instant::now \"##; after();\n");
        assert!(!s.code.contains("Instant"), "{}", s.code);
        assert!(s.code.contains("after()"));
    }

    #[test]
    fn byte_raw_string_is_blanked() {
        let s = strip("let a = br#\"thread::spawn\"#; ok();\n");
        assert!(!s.code.contains("thread::spawn"), "{}", s.code);
        assert!(s.code.contains("ok()"));
    }

    #[test]
    fn raw_string_containing_comment_markers_stays_a_string() {
        let s = strip("let a = r#\"\n// Instant::now\n/* thread::spawn */\n\"#; done();\n");
        assert!(!s.code.contains("Instant"), "{}", s.code);
        assert!(!s.code.contains("spawn"), "{}", s.code);
        assert!(s.comments.is_empty(), "{:?}", s.comments);
        assert!(s.code.contains("done()"));
    }

    #[test]
    fn deeply_nested_block_comment_blanks_triggers_and_resumes_code() {
        let s = strip("a /* 1 /* 2 /* Instant::now */ 2 */ 1 */ SystemTime::now();\n");
        assert!(!s.code.contains("Instant"), "{}", s.code);
        assert!(s.code.contains("SystemTime::now"), "{}", s.code);
        assert_eq!(s.comments.len(), 1);
        assert!(s.comments[0].text.contains("Instant::now"));
    }

    #[test]
    fn quote_char_literal_does_not_open_a_string() {
        let s = strip("let q = '\"'; Instant::now();\n");
        assert!(s.code.contains("Instant::now"), "{}", s.code);
    }

    #[test]
    fn string_containing_comment_openers_does_not_start_a_comment() {
        let s = strip("let a = \"/*\"; Instant::now(); let b = \"*/\";\n");
        assert!(s.code.contains("Instant::now"), "{}", s.code);
        assert!(s.comments.is_empty());
    }

    #[test]
    fn raw_string_opener_inside_line_comment_is_inert() {
        let s = strip("// r#\"\nInstant::now();\n");
        assert!(s.code.contains("Instant::now"), "{}", s.code);
        assert_eq!(s.comments.len(), 1);
    }

    #[test]
    fn unterminated_block_comment_at_eof_is_still_captured() {
        let s = strip("fn f() {}\n/* SAFETY: tail comment with no close");
        assert!(!s.code.contains("SAFETY"), "{}", s.code);
        assert_eq!(s.comments.len(), 1, "{:?}", s.comments);
        assert!(s.comments[0].text.contains("SAFETY: tail comment"));
        assert_eq!(s.comments[0].line, 2);
    }

    #[test]
    fn raw_identifier_is_not_a_raw_string() {
        let s = strip("let r#match = 1; Instant::now();\n");
        assert!(s.code.contains("Instant::now"), "{}", s.code);
    }
}
