//! A small hand-rolled Rust lexer.
//!
//! The analyzer needs exactly one guarantee from its front end: a
//! token stream in which **source text inside comments, string
//! literals, raw strings, and char literals can never be mistaken for
//! code**. Everything the rules and the parser match on — `Instant`,
//! `HashMap`, `Mutex`, `#[cfg(test)]` — is an identifier or punctuation
//! token, so a pattern name appearing in a doc comment or a format
//! string is invisible to the rules by construction.
//!
//! The lexer is deliberately not a full Rust grammar: it has no notion
//! of expressions or items, just enough lexical structure (nested
//! block comments, raw strings with `#` fences, byte strings,
//! lifetime-vs-char disambiguation, raw identifiers) to segment real
//! workspace sources without mis-bracketing. Numbers and punctuation
//! are kept as single tokens; multi-char operators are left as
//! individual punct tokens because no rule needs them joined.

/// The lexical class of a [`Token`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (including raw `r#ident` forms, with
    /// the `r#` prefix included in the span).
    Ident,
    /// A lifetime such as `'a` (leading quote included).
    Lifetime,
    /// A numeric literal (suffixes included).
    Number,
    /// A `"…"` or `b"…"` string literal, delimiters included.
    Str,
    /// A raw string literal (`r"…"`, `r#"…"#`, `br#"…"#`, …).
    RawStr,
    /// A `'…'` or `b'…'` char/byte literal.
    Char,
    /// A `// …` line comment (doc comments included).
    LineComment,
    /// A `/* … */` block comment, nesting handled (doc forms included).
    BlockComment,
    /// Any other single character.
    Punct,
}

/// One lexed token: kind plus byte span and 1-based position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// Lexical class.
    pub kind: TokenKind,
    /// Byte offset of the first byte, inclusive.
    pub start: usize,
    /// Byte offset past the last byte, exclusive.
    pub end: usize,
    /// 1-based line of the first byte.
    pub line: u32,
    /// 1-based byte column of the first byte.
    pub col: u32,
}

impl Token {
    /// The token's source text.
    #[must_use]
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start..self.end]
    }

    /// Whether this is a doc comment (`///`, `//!`, `/**`, `/*!`).
    #[must_use]
    pub fn is_doc_comment(&self, src: &str) -> bool {
        let t = self.text(src);
        match self.kind {
            // `////…` dividers are ordinary comments, not docs.
            TokenKind::LineComment => {
                (t.starts_with("///") && !t.starts_with("////")) || t.starts_with("//!")
            }
            TokenKind::BlockComment => t.starts_with("/**") || t.starts_with("/*!"),
            _ => false,
        }
    }

    /// Whether this is any kind of comment.
    #[must_use]
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Tracks line/column while the scanners below advance byte-wise.
struct Cursor<'a> {
    src: &'a [u8],
    i: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a [u8]) -> Self {
        Cursor {
            src,
            i: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.i + ahead).copied()
    }

    /// Advances one byte, maintaining line/col.
    fn bump(&mut self) {
        if self.src.get(self.i) == Some(&b'\n') {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        self.i += 1;
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }
}

/// Lexes `src` into tokens. Whitespace is dropped; comments are kept
/// (the rule engine reads `lint:allow` escapes and doc comments out of
/// them). The lexer never fails: unterminated literals simply extend
/// to end of input, which is the safe direction for an analyzer (text
/// after a broken literal is *not* treated as code).
#[must_use]
pub fn lex(src: &str) -> Vec<Token> {
    let bytes = src.as_bytes();
    let mut cur = Cursor::new(bytes);
    let mut tokens = Vec::new();

    while let Some(c) = cur.peek(0) {
        if c.is_ascii_whitespace() {
            cur.bump();
            continue;
        }
        let (start, line, col) = (cur.i, cur.line, cur.col);
        let kind = if c == b'/' && cur.peek(1) == Some(b'/') {
            scan_line_comment(&mut cur)
        } else if c == b'/' && cur.peek(1) == Some(b'*') {
            scan_block_comment(&mut cur)
        } else if let Some(kind) = try_scan_string_family(&mut cur) {
            kind
        } else if c == b'\'' {
            scan_quote(&mut cur)
        } else if is_ident_start(c) {
            scan_ident(&mut cur)
        } else if c.is_ascii_digit() {
            scan_number(&mut cur)
        } else {
            cur.bump();
            TokenKind::Punct
        };
        tokens.push(Token {
            kind,
            start,
            end: cur.i,
            line,
            col,
        });
    }
    tokens
}

fn scan_line_comment(cur: &mut Cursor<'_>) -> TokenKind {
    while let Some(b) = cur.peek(0) {
        if b == b'\n' {
            break;
        }
        cur.bump();
    }
    TokenKind::LineComment
}

fn scan_block_comment(cur: &mut Cursor<'_>) -> TokenKind {
    cur.bump_n(2); // `/*`
    let mut depth = 1u32;
    while depth > 0 {
        match (cur.peek(0), cur.peek(1)) {
            (Some(b'/'), Some(b'*')) => {
                depth += 1;
                cur.bump_n(2);
            }
            (Some(b'*'), Some(b'/')) => {
                depth -= 1;
                cur.bump_n(2);
            }
            (Some(_), _) => cur.bump(),
            (None, _) => break, // unterminated: extend to EOF
        }
    }
    TokenKind::BlockComment
}

/// Handles every `"`-delimited form plus the `r`/`b` prefixes that
/// change lexing: `"…"`, `b"…"`, `r"…"`, `r#"…"#`, `br##"…"##`, and
/// the byte-char `b'…'`. Returns `None` when the cursor is not at one
/// of these (e.g. `r` starting a plain identifier).
fn try_scan_string_family(cur: &mut Cursor<'_>) -> Option<TokenKind> {
    let c = cur.peek(0)?;
    if c == b'"' {
        scan_string(cur);
        return Some(TokenKind::Str);
    }
    if !(c == b'r' || c == b'b') {
        return None;
    }
    // Work out the prefix shape without consuming.
    let mut j = 1; // bytes of prefix beyond the first
    let mut raw = c == b'r';
    if c == b'b' {
        match cur.peek(1) {
            Some(b'r') => {
                raw = true;
                j = 2;
            }
            Some(b'\'') => {
                // `b'x'`: byte literal, same scan as a char.
                cur.bump(); // `b`
                scan_quote(cur);
                return Some(TokenKind::Char);
            }
            _ => {}
        }
    }
    if raw {
        // `r`/`br` then zero or more `#` then `"`.
        let mut hashes = 0;
        while cur.peek(j + hashes) == Some(b'#') {
            hashes += 1;
        }
        if cur.peek(j + hashes) == Some(b'"') {
            cur.bump_n(j + hashes + 1);
            scan_raw_string_body(cur, hashes);
            return Some(TokenKind::RawStr);
        }
        return None; // raw identifier (`r#ident`) or plain ident
    }
    if c == b'b' && cur.peek(1) == Some(b'"') {
        cur.bump(); // `b`
        scan_string(cur);
        return Some(TokenKind::Str);
    }
    None
}

fn scan_string(cur: &mut Cursor<'_>) {
    cur.bump(); // opening `"`
    while let Some(b) = cur.peek(0) {
        match b {
            b'\\' => cur.bump_n(2),
            b'"' => {
                cur.bump();
                return;
            }
            _ => cur.bump(),
        }
    }
}

fn scan_raw_string_body(cur: &mut Cursor<'_>, hashes: usize) {
    while let Some(b) = cur.peek(0) {
        if b == b'"' {
            let mut matched = 0;
            while matched < hashes && cur.peek(1 + matched) == Some(b'#') {
                matched += 1;
            }
            if matched == hashes {
                cur.bump_n(1 + hashes);
                return;
            }
        }
        cur.bump();
    }
}

/// Disambiguates `'a` (lifetime) from `'x'` / `'\n'` (char literal).
fn scan_quote(cur: &mut Cursor<'_>) -> TokenKind {
    cur.bump(); // `'`
    match (cur.peek(0), cur.peek(1)) {
        // `'ident` not closed by a quote → lifetime (covers `'_`).
        (Some(n), after) if is_ident_start(n) && after != Some(b'\'') => {
            while cur.peek(0).is_some_and(is_ident_continue) {
                cur.bump();
            }
            TokenKind::Lifetime
        }
        _ => {
            // Char literal: consume to the closing quote, escapes opaque.
            while let Some(b) = cur.peek(0) {
                match b {
                    b'\\' => cur.bump_n(2),
                    b'\'' => {
                        cur.bump();
                        break;
                    }
                    _ => cur.bump(),
                }
            }
            TokenKind::Char
        }
    }
}

fn scan_ident(cur: &mut Cursor<'_>) -> TokenKind {
    // `r#ident` raw identifiers arrive here when the `#` is not
    // followed by a raw-string quote; fold the prefix into the ident.
    if cur.peek(0) == Some(b'r')
        && cur.peek(1) == Some(b'#')
        && cur.peek(2).is_some_and(is_ident_start)
    {
        cur.bump_n(2);
    }
    while cur.peek(0).is_some_and(is_ident_continue) {
        cur.bump();
    }
    TokenKind::Ident
}

fn scan_number(cur: &mut Cursor<'_>) -> TokenKind {
    // Digits, underscores, radix/suffix letters; a `.` only when it is
    // followed by a digit (so `0..10` leaves the range operator alone).
    while let Some(b) = cur.peek(0) {
        let in_number =
            is_ident_continue(b) || (b == b'.' && cur.peek(1).is_some_and(|d| d.is_ascii_digit()));
        if !in_number {
            break;
        }
        cur.bump();
    }
    TokenKind::Number
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src)
            .into_iter()
            .map(|t| (t.kind, t.text(src).to_string()))
            .collect()
    }

    #[test]
    fn idents_and_puncts() {
        let ks = kinds("let x = foo.unwrap();");
        let texts: Vec<&str> = ks.iter().map(|(_, t)| t.as_str()).collect();
        assert_eq!(
            texts,
            ["let", "x", "=", "foo", ".", "unwrap", "(", ")", ";"]
        );
        assert_eq!(ks[5].0, TokenKind::Ident);
    }

    #[test]
    fn string_contents_are_not_code() {
        let ks = kinds(r#"let s = "a.unwrap() /* x */";"#);
        assert!(ks.iter().filter(|(k, _)| *k == TokenKind::Str).count() == 1);
        assert!(!ks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "unwrap"));
    }

    #[test]
    fn escaped_quotes_stay_inside_the_string() {
        let src = r#"x("\"unsafe\"") y"#;
        let ks = kinds(src);
        let strs: Vec<&str> = ks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Str)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(strs, [r#""\"unsafe\"""#]);
        assert!(ks.iter().any(|(k, t)| *k == TokenKind::Ident && t == "y"));
    }

    #[test]
    fn raw_strings_with_fences() {
        let src = r###"let s = r#"contains "quotes" and unwrap()"#; done"###;
        let ks = kinds(src);
        assert!(ks.iter().any(|(k, _)| *k == TokenKind::RawStr));
        assert!(!ks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "unwrap"));
        assert!(ks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "done"));
    }

    #[test]
    fn nested_block_comments() {
        let ks = kinds("a /* outer /* inner */ still comment */ b");
        let idents: Vec<&str> = ks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Ident)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(idents, ["a", "b"]);
        assert_eq!(
            ks.iter()
                .filter(|(k, _)| *k == TokenKind::BlockComment)
                .count(),
            1
        );
    }

    #[test]
    fn lifetimes_vs_chars() {
        let ks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert_eq!(
            ks.iter().filter(|(k, _)| *k == TokenKind::Lifetime).count(),
            2
        );
        assert_eq!(ks.iter().filter(|(k, _)| *k == TokenKind::Char).count(), 2);
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let ks = kinds(r##"let a = b"bytes"; let b = b'x'; let c = br#"raw"#;"##);
        assert!(ks.iter().any(|(k, _)| *k == TokenKind::Str));
        assert!(ks.iter().any(|(k, _)| *k == TokenKind::Char));
        assert!(ks.iter().any(|(k, _)| *k == TokenKind::RawStr));
    }

    #[test]
    fn raw_identifiers_are_idents_not_strings() {
        let ks = kinds("let r#fn = 1; r#type");
        let idents: Vec<&str> = ks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Ident)
            .map(|(_, t)| t.as_str())
            .collect();
        assert!(idents.contains(&"r#fn"));
        assert!(idents.contains(&"r#type"));
    }

    #[test]
    fn line_and_column_tracking() {
        let src = "a\n  bb\n\tccc";
        let toks = lex(src);
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
        assert_eq!((toks[2].line, toks[2].col), (3, 2));
    }

    #[test]
    fn doc_comment_detection() {
        let src = "/// doc\n//! inner\n// plain\n//// divider\n/** block */\n/* plain */";
        let toks = lex(src);
        let docs: Vec<bool> = toks.iter().map(|t| t.is_doc_comment(src)).collect();
        assert_eq!(docs, [true, true, false, false, true, false]);
    }

    #[test]
    fn numbers_do_not_swallow_ranges() {
        let ks = kinds("for i in 0..10 { let x = 1.5e3; let h = 0xff_u8; }");
        let nums: Vec<&str> = ks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Number)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(nums, ["0", "10", "1.5e3", "0xff_u8"]);
    }

    #[test]
    fn unterminated_string_extends_to_eof() {
        let ks = kinds("let s = \"never closed... unsafe unwrap");
        assert!(!ks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && (t == "unsafe" || t == "unwrap")));
    }
}
