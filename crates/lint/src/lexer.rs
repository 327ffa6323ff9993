//! A small, honest Rust lexer.
//!
//! The string-grep heuristics this crate replaces miscounted braces
//! inside string literals and comments, counted dispatch tokens that
//! only appeared in documentation, and could not tell a lifetime from a
//! char literal. This lexer classifies every byte of a source file into
//! exactly one token so the rest of the engine can reason about *code*
//! and ignore the rest:
//!
//! * line comments (`//`, `///`, `//!`) and **nested** block comments
//!   (`/* /* */ */`, `/**`, `/*!`);
//! * string literals, including raw strings with any number of `#`
//!   guards (`r"…"`, `r#"…"#`, `br##"…"##`) and byte strings;
//! * char literals vs lifetimes (`'a'` vs `'a`), including escaped
//!   chars (`'\''`, `'\u{1F600}'`) and byte chars (`b'x'`);
//! * identifiers/keywords, numbers, and single-character punctuation.
//!
//! The lexer is total: it never fails, and the concatenation of all
//! token texts (plus skipped whitespace) is the input. Unterminated
//! literals and comments extend to end of input.

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `match`, `HashMap`, …).
    Ident,
    /// A lifetime (`'a`, `'static`) — leading quote included.
    Lifetime,
    /// A char or byte-char literal (`'x'`, `b'\n'`).
    Char,
    /// A string literal of any flavor (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// A numeric literal (`0x1F`, `1_000`, `2.5e-3`).
    Number,
    /// A `//` comment (doc comments included), newline excluded.
    LineComment,
    /// A `/* … */` comment, nesting respected, delimiters included.
    BlockComment,
    /// A single punctuation byte (`{`, `:`, `!`, …).
    Punct,
}

/// One lexed token: classification plus exact source span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'s> {
    /// Token class.
    pub kind: TokenKind,
    /// Exact source text of the token.
    pub text: &'s str,
    /// Byte offset of the token start in the input.
    pub start: usize,
    /// 1-based line number of the token start.
    pub line: u32,
}

impl Token<'_> {
    /// Whether this token is a comment of either flavor.
    #[must_use]
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }

    /// The literal content of a [`TokenKind::Str`] token: quotes, raw
    /// guards, and prefix stripped (escape sequences are left as
    /// written). Returns the raw text for non-string tokens.
    #[must_use]
    pub fn str_content(&self) -> &str {
        if self.kind != TokenKind::Str {
            return self.text;
        }
        let mut s = self.text;
        s = s.strip_prefix('b').unwrap_or(s);
        s = s.strip_prefix('r').unwrap_or(s);
        let guards = s.bytes().take_while(|&b| b == b'#').count();
        s = &s[guards..];
        s = s.strip_prefix('"').unwrap_or(s);
        let end_len = 1 + guards;
        if s.len() >= end_len && s.ends_with(&"\"#########"[..=guards.min(9)]) {
            &s[..s.len() - end_len]
        } else {
            // Unterminated literal: everything after the open quote.
            s
        }
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Lexes `src` into a token stream (whitespace skipped).
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn lex(src: &str) -> Vec<Token<'_>> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let at = |j: usize| bytes.get(j).copied();

    while i < bytes.len() {
        let b = bytes[i];
        let start = i;
        let start_line = line;

        // Whitespace.
        if b.is_ascii_whitespace() {
            if b == b'\n' {
                line += 1;
            }
            i += 1;
            continue;
        }

        // Comments.
        if b == b'/' && at(i + 1) == Some(b'/') {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            tokens.push(Token {
                kind: TokenKind::LineComment,
                text: &src[start..i],
                start,
                line: start_line,
            });
            continue;
        }
        if b == b'/' && at(i + 1) == Some(b'*') {
            let mut depth = 1usize;
            i += 2;
            while i < bytes.len() && depth > 0 {
                if bytes[i] == b'\n' {
                    line += 1;
                    i += 1;
                } else if bytes[i] == b'/' && at(i + 1) == Some(b'*') {
                    depth += 1;
                    i += 2;
                } else if bytes[i] == b'*' && at(i + 1) == Some(b'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            tokens.push(Token {
                kind: TokenKind::BlockComment,
                text: &src[start..i],
                start,
                line: start_line,
            });
            continue;
        }

        // Raw / byte / plain string families. The prefix grammar is
        // `b? r? #* "` where `#` guards only follow an `r`.
        let (is_raw, prefix_len) = match (b, at(i + 1), at(i + 2)) {
            (b'r', Some(b'"' | b'#'), _) => (true, 1),
            (b'b', Some(b'r'), Some(b'"' | b'#')) => (true, 2),
            (b'"', ..) => (false, 0),
            (b'b', Some(b'"'), _) => (false, 1),
            _ => (false, usize::MAX),
        };
        if prefix_len != usize::MAX {
            i += prefix_len;
            let guards = if is_raw {
                let g = bytes[i..].iter().take_while(|&&c| c == b'#').count();
                i += g;
                g
            } else {
                0
            };
            if at(i) == Some(b'"') {
                i += 1;
                loop {
                    match at(i) {
                        None => break,
                        Some(b'\n') => {
                            line += 1;
                            i += 1;
                        }
                        Some(b'\\') if !is_raw => i += 2,
                        Some(b'"') => {
                            i += 1;
                            if !is_raw {
                                break;
                            }
                            let close = bytes[i..].iter().take_while(|&&c| c == b'#').count();
                            if close >= guards {
                                i += guards;
                                break;
                            }
                        }
                        Some(_) => i += 1,
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::Str,
                    text: &src[start..i.min(bytes.len())],
                    start,
                    line: start_line,
                });
                continue;
            }
            // `r` / `b` not followed by a quote after all: rewind and
            // fall through to the identifier path.
            i = start;
        }

        // Lifetimes vs char literals. After a `'`: an escape or a
        // single non-identifier char closed by `'` is a char literal; a
        // run of identifier chars closed by `'` is a char literal only
        // if it is exactly one char (`'a'`), otherwise it is a lifetime
        // (`'static`). `b'x'` byte chars ride the same path.
        let quote_at = if b == b'\'' {
            Some(i)
        } else if b == b'b' && at(i + 1) == Some(b'\'') {
            Some(i + 1)
        } else {
            None
        };
        if let Some(q) = quote_at {
            let mut j = q + 1;
            let kind = if at(j) == Some(b'\\') {
                // Escaped char literal: scan to the closing quote.
                j += 2; // skip backslash + escaped byte
                while j < bytes.len() && bytes[j] != b'\'' {
                    j += 1;
                }
                j = (j + 1).min(bytes.len());
                TokenKind::Char
            } else {
                let ident_run = bytes[j..]
                    .iter()
                    .take_while(|&&c| is_ident_continue(c))
                    .count();
                if ident_run > 0 && at(j + ident_run) == Some(b'\'') && ident_run == 1 {
                    j += ident_run + 1;
                    TokenKind::Char
                } else if ident_run > 0 && at(j + ident_run) != Some(b'\'') {
                    j += ident_run;
                    TokenKind::Lifetime
                } else if ident_run == 0 && at(j).is_some() && at(j + 1) == Some(b'\'') {
                    // Non-identifier char like '(' or '.'.
                    j += 2;
                    TokenKind::Char
                } else {
                    // 'abc' (malformed) or trailing quote: consume the
                    // quote alone as punctuation.
                    j = q + 1;
                    TokenKind::Punct
                }
            };
            i = j;
            tokens.push(Token {
                kind,
                text: &src[start..i],
                start,
                line: start_line,
            });
            continue;
        }

        // Identifiers and keywords.
        if is_ident_start(b) {
            while i < bytes.len() && is_ident_continue(bytes[i]) {
                i += 1;
            }
            tokens.push(Token {
                kind: TokenKind::Ident,
                text: &src[start..i],
                start,
                line: start_line,
            });
            continue;
        }

        // Numbers (simplified: enough to keep digits out of the ident
        // and punct streams; exponent signs split into separate tokens,
        // which no check here cares about).
        if b.is_ascii_digit() {
            while i < bytes.len()
                && (is_ident_continue(bytes[i])
                    || (bytes[i] == b'.' && at(i + 1).is_some_and(|c| c.is_ascii_digit())))
            {
                i += 1;
            }
            tokens.push(Token {
                kind: TokenKind::Number,
                text: &src[start..i],
                start,
                line: start_line,
            });
            continue;
        }

        // Everything else: one punctuation byte.
        i += 1;
        tokens.push(Token {
            kind: TokenKind::Punct,
            text: &src[start..i],
            start,
            line: start_line,
        });
    }
    tokens
}

/// Returns `src` with every comment and string/char literal replaced by
/// spaces (newlines preserved), so byte offsets and line numbers are
/// unchanged. This is the bridge for legacy substring heuristics: a
/// grep over the blanked text cannot be fooled by a `"{"` literal or a
/// commented-out token.
#[must_use]
pub fn blank_noncode(src: &str) -> String {
    let mut out = src.as_bytes().to_vec();
    for token in lex(src) {
        if matches!(
            token.kind,
            TokenKind::LineComment | TokenKind::BlockComment | TokenKind::Str | TokenKind::Char
        ) {
            for b in &mut out[token.start..token.start + token.text.len()] {
                if *b != b'\n' {
                    *b = b' ';
                }
            }
        }
    }
    String::from_utf8(out).unwrap_or_else(|_| {
        // Blanking only ever rewrites bytes inside literal/comment
        // spans to ASCII spaces; if that produced invalid UTF-8 the
        // lexer mis-spanned, and falling back to a fully blanked string
        // keeps callers safe (no phantom tokens).
        src.chars()
            .map(|c| if c == '\n' { '\n' } else { ' ' })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, &str)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_numbers_punct() {
        assert_eq!(
            kinds("fn foo(x: u32) -> u32 { x + 0x1F }"),
            vec![
                (TokenKind::Ident, "fn"),
                (TokenKind::Ident, "foo"),
                (TokenKind::Punct, "("),
                (TokenKind::Ident, "x"),
                (TokenKind::Punct, ":"),
                (TokenKind::Ident, "u32"),
                (TokenKind::Punct, ")"),
                (TokenKind::Punct, "-"),
                (TokenKind::Punct, ">"),
                (TokenKind::Ident, "u32"),
                (TokenKind::Punct, "{"),
                (TokenKind::Ident, "x"),
                (TokenKind::Punct, "+"),
                (TokenKind::Number, "0x1F"),
                (TokenKind::Punct, "}"),
            ]
        );
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("a /* outer /* inner */ still outer */ b");
        assert_eq!(
            toks,
            vec![
                (TokenKind::Ident, "a"),
                (
                    TokenKind::BlockComment,
                    "/* outer /* inner */ still outer */"
                ),
                (TokenKind::Ident, "b"),
            ]
        );
    }

    #[test]
    fn raw_strings_with_guards() {
        let src = r####"let s = r#"has "quotes" and { braces }"#; done"####;
        let toks = lex(src);
        let s = toks.iter().find(|t| t.kind == TokenKind::Str).expect("str");
        assert_eq!(s.text, r###"r#"has "quotes" and { braces }"#"###);
        assert_eq!(s.str_content(), r#"has "quotes" and { braces }"#);
        assert_eq!(toks.last().expect("last").text, "done");
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let toks = kinds(r##"b"x" br#"y"# r"z""##);
        assert_eq!(
            toks,
            vec![
                (TokenKind::Str, "b\"x\""),
                (TokenKind::Str, "br#\"y\"#"),
                (TokenKind::Str, "r\"z\""),
            ]
        );
    }

    #[test]
    fn lifetime_vs_char_literal() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let s = 'static_ident; }");
        assert!(toks.contains(&(TokenKind::Lifetime, "'a")));
        assert!(toks.contains(&(TokenKind::Char, "'x'")));
        assert!(toks.contains(&(TokenKind::Lifetime, "'static_ident")));
    }

    #[test]
    fn escaped_char_literals() {
        let toks = kinds(r"let a = '\''; let b = '\u{1F600}'; let c = b'\n';");
        assert!(toks.contains(&(TokenKind::Char, r"'\''")));
        assert!(toks.contains(&(TokenKind::Char, r"'\u{1F600}'")));
        assert!(toks.contains(&(TokenKind::Char, r"b'\n'")));
    }

    #[test]
    fn non_ident_char_literal() {
        let toks = kinds("let dot = '.'; let open = '{';");
        assert!(toks.contains(&(TokenKind::Char, "'.'")));
        assert!(toks.contains(&(TokenKind::Char, "'{'")));
    }

    #[test]
    fn string_escapes_do_not_end_early() {
        let toks = kinds(r#"let s = "a \" b { c"; x"#);
        assert!(toks.contains(&(TokenKind::Str, r#""a \" b { c""#)));
        assert_eq!(toks.last().expect("last").1, "x");
    }

    #[test]
    fn line_numbers_advance_through_all_token_kinds() {
        let src = "a\n/* c1\nc2 */\n\"s1\ns2\"\nb";
        let toks = lex(src);
        let b = toks.iter().find(|t| t.text == "b").expect("b");
        assert_eq!(b.line, 6);
    }

    #[test]
    fn lexing_is_total_on_unterminated_input() {
        for src in ["\"unterminated", "/* unterminated", "r#\"unterminated", "'"] {
            let toks = lex(src);
            assert!(!toks.is_empty(), "{src:?}");
        }
    }

    #[test]
    fn blank_noncode_preserves_layout() {
        let src = "let a = \"{ hidden }\"; // { also hidden }\nlet b = 1;";
        let blanked = blank_noncode(src);
        assert_eq!(blanked.len(), src.len());
        assert!(!blanked.contains("hidden"));
        assert!(blanked.contains("let b = 1;"));
        assert_eq!(
            blanked.lines().count(),
            src.lines().count(),
            "newlines preserved"
        );
        assert!(!blanked.contains('{'), "brace in string is blanked");
    }
}
