//! Generic block-structured text parsing: a lexer with line/column spans
//! and a recursive-descent parser for an HCL-ish surface syntax.
//!
//! This module is *syntax only*. It turns text like
//!
//! ```text
//! system "SIMON" {
//!   category = monitoring
//!   solves   = [capture_delays, detect_queue_length]
//!   requires "needs-nic-timestamps" {
//!     condition = nics.have(NIC_TIMESTAMPS)
//!   }
//! }
//! ```
//!
//! into a generic tree of [`Block`]s, [`Attr`]s, and [`Expr`]s, each
//! carrying a [`Span`]. Assigning *meaning* to keywords and expressions is
//! the job of a frontend layered on top (the `netarch-dsl` crate); keeping
//! the split here mirrors how [`crate::json`] parses values without knowing
//! the shapes deserialized from them.
//!
//! The grammar, informally:
//!
//! ```text
//! document := block*
//! block    := IDENT STRING* '{' item* '}'
//! item     := IDENT '=' expr            (attribute)
//!           | IDENT STRING* '{' ... '}' (nested block)
//! expr     := sum (CMPOP sum)?          CMPOP ∈ { < <= > >= == }
//! sum      := product ('+' product)*
//! product  := primary ('*' primary)*
//! primary  := STRING | NUMBER | '-' NUMBER | INT '..' INT
//!           | 'true' | 'false'
//!           | path | path '(' expr,* ')'
//!           | '[' expr,* ']' | '(' expr ')'
//! path     := IDENT ('.' IDENT)*
//! ```
//!
//! `#` starts a comment running to end of line.

use std::fmt;

/// A position in the source text, 1-based, in characters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Pos {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column number (in characters, not bytes).
    pub col: usize,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A source region, inclusive of `start`, exclusive of `end`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Span {
    /// Where the region begins.
    pub start: Pos,
    /// Where the region ends.
    pub end: Pos,
}

impl Span {
    /// A zero-width span at a position.
    pub fn at(pos: Pos) -> Span {
        Span { start: pos, end: pos }
    }

    /// The smallest span covering both operands.
    pub fn to(self, other: Span) -> Span {
        Span { start: self.start, end: other.end }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.start)
    }
}

/// A value paired with the span it was parsed from.
#[derive(Clone, PartialEq, Debug)]
pub struct Spanned<T> {
    /// The parsed value.
    pub value: T,
    /// Where it came from.
    pub span: Span,
}

impl<T> Spanned<T> {
    /// Pairs a value with its span.
    pub fn new(value: T, span: Span) -> Spanned<T> {
        Spanned { value, span }
    }
}

/// A syntax error with the position it occurred at.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TextError {
    /// What went wrong.
    pub message: String,
    /// Where it went wrong.
    pub span: Span,
}

impl TextError {
    /// Creates an error at a span.
    pub fn new(message: impl Into<String>, span: Span) -> TextError {
        TextError { message: message.into(), span }
    }
}

impl fmt::Display for TextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.span.start, self.message)
    }
}

impl std::error::Error for TextError {}

/// Binary operators appearing in expressions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BinOp {
    /// `+`
    Add,
    /// `*`
    Mul,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    EqEq,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Mul => "*",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::EqEq => "==",
        };
        f.write_str(s)
    }
}

/// A generic attribute-value expression.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// A quoted string literal.
    Str(String),
    /// An integer literal (possibly negative).
    Int(i64),
    /// A float literal (possibly negative).
    Float(f64),
    /// `true` / `false`.
    Bool(bool),
    /// A dotted identifier path, e.g. `monitoring` or `nics.have`.
    Path(Vec<String>),
    /// A call, e.g. `nics.have(NIC_TIMESTAMPS)` or `all(a, b)`.
    Call {
        /// The dotted callee path.
        path: Vec<String>,
        /// Argument expressions.
        args: Vec<Spanned<Expr>>,
    },
    /// A bracketed list.
    List(Vec<Spanned<Expr>>),
    /// An integer range `lo..hi`.
    Range(i64, i64),
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Spanned<Expr>>,
        /// Right operand.
        rhs: Box<Spanned<Expr>>,
    },
}

impl Expr {
    /// The path segments if the expression is a bare single-segment path.
    pub fn as_ident(&self) -> Option<&str> {
        match self {
            Expr::Path(segments) if segments.len() == 1 => Some(&segments[0]),
            _ => None,
        }
    }
}

/// A `key = value` attribute.
#[derive(Clone, PartialEq, Debug)]
pub struct Attr {
    /// Attribute name.
    pub key: Spanned<String>,
    /// Attribute value.
    pub value: Spanned<Expr>,
}

/// One entry in a block body.
#[derive(Clone, PartialEq, Debug)]
pub enum Item {
    /// A `key = value` attribute.
    Attr(Attr),
    /// A nested block.
    Block(Block),
}

/// A block: keyword, optional quoted labels, and a braced body.
#[derive(Clone, PartialEq, Debug)]
pub struct Block {
    /// The leading keyword (`system`, `hardware`, …).
    pub keyword: Spanned<String>,
    /// Quoted labels between the keyword and the brace.
    pub labels: Vec<Spanned<String>>,
    /// Body entries in source order.
    pub body: Vec<Item>,
    /// The whole block, keyword through closing brace.
    pub span: Span,
}

impl Block {
    /// The first label, if present.
    pub fn label(&self) -> Option<&Spanned<String>> {
        self.labels.first()
    }

    /// Iterates the body's attributes.
    pub fn attrs(&self) -> impl Iterator<Item = &Attr> {
        self.body.iter().filter_map(|item| match item {
            Item::Attr(attr) => Some(attr),
            Item::Block(_) => None,
        })
    }

    /// Iterates the body's nested blocks.
    pub fn blocks(&self) -> impl Iterator<Item = &Block> {
        self.body.iter().filter_map(|item| match item {
            Item::Block(block) => Some(block),
            Item::Attr(_) => None,
        })
    }

    /// Finds an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&Attr> {
        self.attrs().find(|a| a.key.value == key)
    }
}

/// A parsed document: top-level blocks in source order.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Document {
    /// The top-level blocks.
    pub blocks: Vec<Block>,
}

/// Parses a block-structured document.
pub fn parse(input: &str) -> Result<Document, TextError> {
    let mut lx = Lexer { src: input, bytes: input.as_bytes(), at: 0, pos: Pos { line: 1, col: 1 } };
    let (tok, span) = lx.next_token()?;
    Parser { lx, tok, span, lex_error: None, items: Vec::new(), exprs: Vec::new() }.document()
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(PartialEq, Debug)]
enum Tok {
    Ident(String),
    Str(String),
    Int(i64),
    Float(f64),
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    LParen,
    RParen,
    Eq,
    Comma,
    Dot,
    DotDot,
    Plus,
    Minus,
    Star,
    Lt,
    Le,
    Gt,
    Ge,
    EqEq,
    Eof,
    /// Stands in for text the lexer rejected; the error itself waits in
    /// the parser until a parse step fails on this token.
    Invalid,
}

impl Tok {
    fn describe(&self) -> String {
        match self {
            Tok::Ident(name) => format!("identifier `{name}`"),
            Tok::Str(_) => "string literal".to_string(),
            Tok::Int(v) => format!("integer `{v}`"),
            Tok::Float(v) => format!("number `{v}`"),
            Tok::LBrace => "`{`".to_string(),
            Tok::RBrace => "`}`".to_string(),
            Tok::LBracket => "`[`".to_string(),
            Tok::RBracket => "`]`".to_string(),
            Tok::LParen => "`(`".to_string(),
            Tok::RParen => "`)`".to_string(),
            Tok::Eq => "`=`".to_string(),
            Tok::Comma => "`,`".to_string(),
            Tok::Dot => "`.`".to_string(),
            Tok::DotDot => "`..`".to_string(),
            Tok::Plus => "`+`".to_string(),
            Tok::Minus => "`-`".to_string(),
            Tok::Star => "`*`".to_string(),
            Tok::Lt => "`<`".to_string(),
            Tok::Le => "`<=`".to_string(),
            Tok::Gt => "`>`".to_string(),
            Tok::Ge => "`>=`".to_string(),
            Tok::EqEq => "`==`".to_string(),
            Tok::Eof => "end of input".to_string(),
            Tok::Invalid => "invalid token".to_string(),
        }
    }
}

/// A cursor over the source bytes. ASCII takes a byte-at-a-time fast
/// path; a `char` is decoded only at a non-ASCII byte, so Unicode
/// identifiers and whitespace follow the `char` predicates and columns
/// count characters, not bytes.
struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    /// Byte offset of the cursor; always on a char boundary.
    at: usize,
    pos: Pos,
}

impl Lexer<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    /// The char at the cursor, decoded.
    fn peek_char(&self) -> Option<char> {
        self.src[self.at..].chars().next()
    }

    /// Steps over one ASCII byte other than `\n`.
    fn bump_ascii(&mut self) {
        self.at += 1;
        self.pos.col += 1;
    }

    /// Steps over one char of any width.
    fn bump_char(&mut self, c: char) {
        self.at += c.len_utf8();
        if c == '\n' {
            self.pos.line += 1;
            self.pos.col = 1;
        } else {
            self.pos.col += 1;
        }
    }

    /// Length of the run at the cursor up to the first byte in `stop`
    /// (or the end of input).
    fn run_until(&self, stop: impl Fn(u8) -> bool) -> usize {
        let rest = &self.bytes[self.at..];
        rest.iter().position(|&b| stop(b)).unwrap_or(rest.len())
    }

    /// Steps over a run of `len` bytes holding no `\n`, one column per
    /// char (every byte that is not a UTF-8 continuation byte).
    fn bump_run(&mut self, len: usize) {
        let run = &self.bytes[self.at..self.at + len];
        self.pos.col += run.iter().filter(|&&b| b & 0xC0 != 0x80).count();
        self.at += len;
    }

    /// Steps over a one-byte token.
    fn one(&mut self, tok: Tok) -> Tok {
        self.bump_ascii();
        tok
    }

    /// Steps over `one`, or over `two` when `second` follows.
    fn one_or_two(&mut self, second: u8, one: Tok, two: Tok) -> Tok {
        self.bump_ascii();
        if self.peek() == Some(second) {
            self.bump_ascii();
            two
        } else {
            one
        }
    }

    /// Lexes the next token; at the end of input, `Eof`.
    fn next_token(&mut self) -> Result<(Tok, Span), TextError> {
        self.skip_trivia();
        let start = self.pos;
        let Some(b) = self.peek() else {
            return Ok((Tok::Eof, Span::at(start)));
        };
        let tok = match b {
            b'{' => self.one(Tok::LBrace),
            b'}' => self.one(Tok::RBrace),
            b'[' => self.one(Tok::LBracket),
            b']' => self.one(Tok::RBracket),
            b'(' => self.one(Tok::LParen),
            b')' => self.one(Tok::RParen),
            b',' => self.one(Tok::Comma),
            b'+' => self.one(Tok::Plus),
            b'-' => self.one(Tok::Minus),
            b'*' => self.one(Tok::Star),
            b'=' => self.one_or_two(b'=', Tok::Eq, Tok::EqEq),
            b'<' => self.one_or_two(b'=', Tok::Lt, Tok::Le),
            b'>' => self.one_or_two(b'=', Tok::Gt, Tok::Ge),
            b'.' => self.one_or_two(b'.', Tok::Dot, Tok::DotDot),
            b'"' => lex_string(self)?,
            b'0'..=b'9' => lex_number(self)?,
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => lex_ident(self),
            _ => match self.peek_char() {
                Some(c) if c.is_alphabetic() => lex_ident(self),
                other => {
                    let shown = other.unwrap_or(char::REPLACEMENT_CHARACTER);
                    return Err(TextError::new(
                        format!("unexpected character `{shown}`"),
                        Span::at(start),
                    ));
                }
            },
        };
        Ok((tok, Span { start, end: self.pos }))
    }

    /// Skips whitespace and `#` comments.
    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(b'\n') => self.bump_char('\n'),
                Some(b' ' | b'\t' | b'\r' | 0x0b | 0x0c) => self.bump_ascii(),
                Some(b'#') => self.bump_run(self.run_until(|b| b == b'\n')),
                Some(0x80..) => match self.peek_char() {
                    Some(c) if c.is_whitespace() => self.bump_char(c),
                    _ => return,
                },
                _ => return,
            }
        }
    }
}

/// Lexes an identifier: `_` and alphanumeric chars, first char not a digit.
fn lex_ident(lx: &mut Lexer<'_>) -> Tok {
    let begin = lx.at;
    loop {
        match lx.peek() {
            Some(b) if b.is_ascii_alphanumeric() || b == b'_' => lx.bump_ascii(),
            Some(0x80..) => match lx.peek_char() {
                Some(c) if c.is_alphanumeric() => lx.bump_char(c),
                _ => break,
            },
            _ => break,
        }
    }
    Tok::Ident(lx.src[begin..lx.at].to_string())
}

fn lex_string(lx: &mut Lexer<'_>) -> Result<Tok, TextError> {
    let open = lx.pos;
    lx.bump_ascii(); // the opening quote
    let mut value = String::new();
    loop {
        // Copy the run up to the next quote, backslash or newline whole.
        let len = lx.run_until(|b| matches!(b, b'"' | b'\\' | b'\n'));
        value.push_str(&lx.src[lx.at..lx.at + len]);
        lx.bump_run(len);
        let at = lx.pos;
        match lx.peek() {
            None => {
                return Err(TextError::new("unterminated string literal", Span::at(open)));
            }
            Some(b'"') => {
                lx.bump_ascii();
                return Ok(Tok::Str(value));
            }
            Some(b'\n') => {
                return Err(TextError::new(
                    "newline inside string literal (escape it as \\n)",
                    Span::at(at),
                ));
            }
            _ => {
                lx.bump_ascii(); // the backslash
                let c = match lx.peek() {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'n') => '\n',
                    Some(b't') => '\t',
                    Some(b'r') => '\r',
                    _ => {
                        let shown = lx
                            .peek_char()
                            .map_or("end of input".to_string(), |c| format!("`\\{c}`"));
                        return Err(TextError::new(
                            format!("unknown escape {shown} in string literal"),
                            Span::at(at),
                        ));
                    }
                };
                lx.bump_ascii();
                value.push(c);
            }
        }
    }
}

fn lex_number(lx: &mut Lexer<'_>) -> Result<Tok, TextError> {
    let start = lx.pos;
    let begin = lx.at;
    let digits = |lx: &mut Lexer<'_>| {
        while matches!(lx.peek(), Some(b'0'..=b'9')) {
            lx.bump_ascii();
        }
    };
    digits(lx);
    // `12..15` must lex as Int(12) DotDot Int(15): only treat a `.` as a
    // fraction point when a digit (not another dot) follows.
    let is_float =
        lx.peek() == Some(b'.') && matches!(lx.bytes.get(lx.at + 1), Some(b'0'..=b'9'));
    if is_float {
        lx.bump_ascii();
        digits(lx);
    }
    let text = &lx.src[begin..lx.at];
    let span = Span { start, end: lx.pos };
    if is_float {
        text.parse::<f64>()
            .map(Tok::Float)
            .map_err(|_| TextError::new(format!("invalid number `{text}`"), span))
    } else {
        text.parse::<i64>()
            .map(Tok::Int)
            .map_err(|_| TextError::new(format!("integer `{text}` out of range"), span))
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// A recursive-descent parser pulling tokens from the lexer one at a
/// time: the lookahead token is the only one that exists.
struct Parser<'a> {
    lx: Lexer<'a>,
    /// The lookahead token and its span.
    tok: Tok,
    span: Span,
    /// Why the lookahead is `Tok::Invalid`.
    lex_error: Option<TextError>,
    /// Entries of the block bodies still open, innermost last: a body
    /// collects here and leaves as one exactly-sized `Vec`.
    items: Vec<Item>,
    /// Elements of the lists and call argument lists still open, likewise.
    exprs: Vec<Spanned<Expr>>,
}

impl Parser<'_> {
    fn peek(&self) -> &Tok {
        &self.tok
    }

    /// Steps past the lookahead, lexing the next token, and returns the
    /// lookahead's span. `Eof` and `Invalid` are sticky.
    fn advance(&mut self) -> Span {
        let span = self.span;
        if !matches!(self.tok, Tok::Eof | Tok::Invalid) {
            match self.lx.next_token() {
                Ok((tok, next)) => {
                    self.tok = tok;
                    self.span = next;
                }
                Err(err) => {
                    self.tok = Tok::Invalid;
                    self.span = err.span;
                    self.lex_error = Some(err);
                }
            }
        }
        span
    }

    /// Moves the text out of the lookahead identifier or string and
    /// steps past it, so no token text is ever cloned.
    fn take_text(&mut self) -> Spanned<String> {
        let text = match &mut self.tok {
            Tok::Ident(text) | Tok::Str(text) => std::mem::take(text),
            _ => String::new(),
        };
        Spanned::new(text, self.advance())
    }

    /// The error for a lookahead the grammar cannot take here: the lexer's
    /// own error if the text did not lex.
    fn error_here(&self, expected: &str) -> TextError {
        if let Some(err) = &self.lex_error {
            return err.clone();
        }
        TextError::new(format!("expected {expected}, found {}", self.tok.describe()), self.span)
    }

    fn expect_ident(&mut self, what: &str) -> Result<Spanned<String>, TextError> {
        match self.peek() {
            Tok::Ident(_) => Ok(self.take_text()),
            _ => Err(self.error_here(what)),
        }
    }

    fn expect(&mut self, tok: Tok, what: &str) -> Result<Span, TextError> {
        if *self.peek() == tok {
            Ok(self.advance())
        } else {
            Err(self.error_here(what))
        }
    }

    fn document(&mut self) -> Result<Document, TextError> {
        let mut blocks = Vec::new();
        while *self.peek() != Tok::Eof {
            blocks.push(self.block()?);
        }
        Ok(Document { blocks })
    }

    fn block(&mut self) -> Result<Block, TextError> {
        let keyword = self.expect_ident("a block keyword")?;
        self.block_tail(keyword)
    }

    /// Parses labels and the braced body after a block keyword.
    fn block_tail(&mut self, keyword: Spanned<String>) -> Result<Block, TextError> {
        let mut labels = Vec::new();
        while let Tok::Str(_) = self.peek() {
            labels.push(self.take_text());
        }
        self.expect(Tok::LBrace, "`{`")?;
        let mark = self.items.len();
        loop {
            match self.peek() {
                Tok::RBrace => {
                    let close = self.advance();
                    let span = keyword.span.to(close);
                    let body = self.items.drain(mark..).collect();
                    return Ok(Block { keyword, labels, body, span });
                }
                Tok::Ident(_) => {
                    let key = self.take_text();
                    match self.peek() {
                        Tok::Eq => {
                            self.advance();
                            let value = self.expr()?;
                            self.items.push(Item::Attr(Attr { key, value }));
                        }
                        Tok::Str(_) | Tok::LBrace => {
                            let block = self.block_tail(key)?;
                            self.items.push(Item::Block(block));
                        }
                        _ => {
                            return Err(self.error_here(
                                "`=` (attribute), a label, or `{` (nested block)",
                            ))
                        }
                    }
                }
                Tok::Eof => {
                    return Err(TextError::new(
                        format!("unclosed block `{}` (missing `}}`)", keyword.value),
                        keyword.span,
                    ));
                }
                _ => return Err(self.error_here("a key or `}`")),
            }
        }
    }

    fn expr(&mut self) -> Result<Spanned<Expr>, TextError> {
        let lhs = self.sum()?;
        let op = match self.peek() {
            Tok::Lt => BinOp::Lt,
            Tok::Le => BinOp::Le,
            Tok::Gt => BinOp::Gt,
            Tok::Ge => BinOp::Ge,
            Tok::EqEq => BinOp::EqEq,
            _ => return Ok(lhs),
        };
        self.advance();
        let rhs = self.sum()?;
        let span = lhs.span.to(rhs.span);
        Ok(Spanned::new(Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }, span))
    }

    fn sum(&mut self) -> Result<Spanned<Expr>, TextError> {
        let mut lhs = self.product()?;
        while *self.peek() == Tok::Plus {
            self.advance();
            let rhs = self.product()?;
            let span = lhs.span.to(rhs.span);
            lhs = Spanned::new(
                Expr::Binary { op: BinOp::Add, lhs: Box::new(lhs), rhs: Box::new(rhs) },
                span,
            );
        }
        Ok(lhs)
    }

    fn product(&mut self) -> Result<Spanned<Expr>, TextError> {
        let mut lhs = self.primary()?;
        while *self.peek() == Tok::Star {
            self.advance();
            let rhs = self.primary()?;
            let span = lhs.span.to(rhs.span);
            lhs = Spanned::new(
                Expr::Binary { op: BinOp::Mul, lhs: Box::new(lhs), rhs: Box::new(rhs) },
                span,
            );
        }
        Ok(lhs)
    }

    fn primary(&mut self) -> Result<Spanned<Expr>, TextError> {
        match *self.peek() {
            Tok::Str(_) => {
                let text = self.take_text();
                Ok(Spanned::new(Expr::Str(text.value), text.span))
            }
            Tok::Int(value) => {
                let span = self.advance();
                // `lo..hi` ranges attach to integer literals.
                if *self.peek() == Tok::DotDot {
                    self.advance();
                    match *self.peek() {
                        Tok::Int(hi) => {
                            let end = self.advance();
                            Ok(Spanned::new(Expr::Range(value, hi), span.to(end)))
                        }
                        _ => Err(self.error_here("an integer after `..`")),
                    }
                } else {
                    Ok(Spanned::new(Expr::Int(value), span))
                }
            }
            Tok::Float(value) => {
                let span = self.advance();
                Ok(Spanned::new(Expr::Float(value), span))
            }
            Tok::Minus => {
                let start = self.advance();
                match *self.peek() {
                    Tok::Int(value) => {
                        let end = self.advance();
                        Ok(Spanned::new(Expr::Int(-value), start.to(end)))
                    }
                    Tok::Float(value) => {
                        let end = self.advance();
                        Ok(Spanned::new(Expr::Float(-value), start.to(end)))
                    }
                    _ => Err(self.error_here("a number after `-`")),
                }
            }
            Tok::LBracket => {
                let open = self.advance();
                let mark = self.exprs.len();
                loop {
                    if *self.peek() == Tok::RBracket {
                        let close = self.advance();
                        let items = self.exprs.drain(mark..).collect();
                        return Ok(Spanned::new(Expr::List(items), open.to(close)));
                    }
                    let item = self.expr()?;
                    self.exprs.push(item);
                    match self.peek() {
                        Tok::Comma => {
                            self.advance();
                        }
                        Tok::RBracket => {}
                        _ => return Err(self.error_here("`,` or `]`")),
                    }
                }
            }
            Tok::LParen => {
                self.advance();
                let inner = self.expr()?;
                self.expect(Tok::RParen, "`)`")?;
                Ok(inner)
            }
            Tok::Ident(_) => {
                let first = self.take_text();
                let start = first.span;
                let mut end = start;
                let mut path = vec![first.value];
                while *self.peek() == Tok::Dot {
                    self.advance();
                    let seg = self.expect_ident("an identifier after `.`")?;
                    end = seg.span;
                    path.push(seg.value);
                }
                if *self.peek() == Tok::LParen {
                    self.advance();
                    let mark = self.exprs.len();
                    loop {
                        if *self.peek() == Tok::RParen {
                            let close = self.advance();
                            let args = self.exprs.drain(mark..).collect();
                            return Ok(Spanned::new(
                                Expr::Call { path, args },
                                start.to(close),
                            ));
                        }
                        let arg = self.expr()?;
                        self.exprs.push(arg);
                        match self.peek() {
                            Tok::Comma => {
                                self.advance();
                            }
                            Tok::RParen => {}
                            _ => return Err(self.error_here("`,` or `)`")),
                        }
                    }
                } else if path.len() == 1 && (path[0] == "true" || path[0] == "false") {
                    Ok(Spanned::new(Expr::Bool(path[0] == "true"), start))
                } else {
                    Ok(Spanned::new(Expr::Path(path), start.to(end)))
                }
            }
            _ => Err(self.error_here("an expression")),
        }
    }
}

/// True when `name` lexes back as a single bare identifier (so a printer
/// may emit it unquoted).
pub fn is_bare_ident(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    (first.is_alphabetic() || first == '_')
        && chars.all(|c| c.is_alphanumeric() || c == '_')
        && name != "true"
        && name != "false"
}

/// Escapes a string for use as a quoted literal.
pub fn quote(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(text: &str) -> Document {
        parse(text).expect("parses")
    }

    #[test]
    fn empty_document() {
        assert_eq!(parse_ok("").blocks.len(), 0);
        assert_eq!(parse_ok("  # only a comment\n").blocks.len(), 0);
    }

    #[test]
    fn block_with_labels_and_attrs() {
        let doc = parse_ok(
            "system \"SIMON\" {\n  category = monitoring\n  cost_usd = 2500\n}\n",
        );
        assert_eq!(doc.blocks.len(), 1);
        let b = &doc.blocks[0];
        assert_eq!(b.keyword.value, "system");
        assert_eq!(b.label().unwrap().value, "SIMON");
        assert_eq!(b.attr("category").unwrap().value.value, Expr::Path(vec!["monitoring".into()]));
        assert_eq!(b.attr("cost_usd").unwrap().value.value, Expr::Int(2500));
    }

    #[test]
    fn nested_blocks_and_lists() {
        let doc = parse_ok(
            "system \"X\" {\n  solves = [a, b, \"odd name\"]\n  requires \"r\" {\n    condition = true\n  }\n}\n",
        );
        let b = &doc.blocks[0];
        let solves = b.attr("solves").unwrap();
        match &solves.value.value {
            Expr::List(items) => assert_eq!(items.len(), 3),
            other => panic!("expected list, got {other:?}"),
        }
        let nested: Vec<&Block> = b.blocks().collect();
        assert_eq!(nested.len(), 1);
        assert_eq!(nested[0].keyword.value, "requires");
        assert_eq!(nested[0].label().unwrap().value, "r");
    }

    #[test]
    fn expressions_parse_with_precedence() {
        let doc = parse_ok("b { amount = 2 + 0.5 * num_flows }");
        let expr = &doc.blocks[0].attr("amount").unwrap().value.value;
        match expr {
            Expr::Binary { op: BinOp::Add, rhs, .. } => match &rhs.value {
                Expr::Binary { op: BinOp::Mul, .. } => {}
                other => panic!("expected mul on rhs, got {other:?}"),
            },
            other => panic!("expected add, got {other:?}"),
        }
    }

    #[test]
    fn comparison_and_calls() {
        let doc = parse_ok("o { when = link_speed_gbps >= 40\n cond = all(deployed(A), nics.have(F)) }");
        let when = &doc.blocks[0].attr("when").unwrap().value.value;
        assert!(matches!(when, Expr::Binary { op: BinOp::Ge, .. }));
        let cond = &doc.blocks[0].attr("cond").unwrap().value.value;
        match cond {
            Expr::Call { path, args } => {
                assert_eq!(path, &vec!["all".to_string()]);
                assert_eq!(args.len(), 2);
                assert!(matches!(&args[1].value, Expr::Call { path, .. } if path == &vec!["nics".to_string(), "have".to_string()]));
            }
            other => panic!("expected call, got {other:?}"),
        }
    }

    #[test]
    fn ranges_and_negative_numbers() {
        let doc = parse_ok("w { racks = 0..3\n delta = -4\n temp = -1.5 }");
        let b = &doc.blocks[0];
        assert_eq!(b.attr("racks").unwrap().value.value, Expr::Range(0, 3));
        assert_eq!(b.attr("delta").unwrap().value.value, Expr::Int(-4));
        assert_eq!(b.attr("temp").unwrap().value.value, Expr::Float(-1.5));
    }

    #[test]
    fn string_escapes_roundtrip() {
        let doc = parse_ok("b { s = \"a\\\"b\\\\c\\nd\" }");
        assert_eq!(
            doc.blocks[0].attr("s").unwrap().value.value,
            Expr::Str("a\"b\\c\nd".to_string())
        );
        assert_eq!(quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn spans_are_line_and_column_accurate() {
        let err = parse("system \"X\" {\n  category = !\n}").unwrap_err();
        assert_eq!(err.span.start.line, 2);
        assert_eq!(err.span.start.col, 14);
    }

    #[test]
    fn unicode_identifiers_are_accepted() {
        let doc = parse_ok("b { café = 1\n  naïve_2 = größe }");
        let b = &doc.blocks[0];
        assert_eq!(b.attr("café").unwrap().value.value, Expr::Int(1));
        assert_eq!(b.attr("naïve_2").unwrap().value.value, Expr::Path(vec!["größe".into()]));
    }

    #[test]
    fn no_break_space_is_whitespace() {
        let doc = parse_ok("b\u{a0}{\u{a0}x\u{a0}=\u{a0}1\u{a0}}");
        assert_eq!(doc.blocks[0].attr("x").unwrap().value.value, Expr::Int(1));
    }

    #[test]
    fn crlf_line_ends_work() {
        let doc = parse_ok("b {\r\n  x = 1\r\n  y = \"s\"\r\n}\r\n");
        assert_eq!(doc.blocks[0].attr("y").unwrap().value.value, Expr::Str("s".into()));
        let err = parse("b {\r\n  x = !\r\n}").unwrap_err();
        assert_eq!(err.span.start.to_string(), "2:7");
    }

    #[test]
    fn non_ascii_comments_are_skipped() {
        let doc = parse_ok("# größe → ü\nb { x = 1 } # ünïcödé ✓\n# 末尾");
        assert_eq!(doc.blocks.len(), 1);
        let err = parse("# ü\n# → x\nb { x = ! }").unwrap_err();
        assert_eq!(err.span.start.to_string(), "3:9");
    }

    #[test]
    fn error_columns_count_characters_not_bytes() {
        let err = parse("system \"ü\" { a = ! }").unwrap_err();
        assert_eq!(err.span.start.to_string(), "1:18");
        let err = parse("b { s = \"→→\" t = 1..x }").unwrap_err();
        assert_eq!(err.span.start.to_string(), "1:21");
    }

    #[test]
    fn errors_never_panic_on_malformed_input() {
        for text in [
            "system {",
            "system \"X\" { a = }",
            "b { x = 1 .. }",
            "b { x = \"unterminated",
            "b { x = [1, }",
            "}",
            "b { x = 0..a }",
            "b { x = - }",
            "b { x = 99999999999999999999 }",
            "b { \"label first\" { } }",
            "b { k \"l\" = 2 }",
        ] {
            let err = parse(text).unwrap_err();
            assert!(err.span.start.line >= 1, "{text}: {err}");
        }
    }

    #[test]
    fn unclosed_block_reports_the_opening_keyword() {
        let err = parse("system \"X\" {\n  a = 1\n").unwrap_err();
        assert!(err.message.contains("unclosed block"), "{err}");
        assert_eq!(err.span.start.line, 1);
    }

    #[test]
    fn bare_ident_classification() {
        assert!(is_bare_ident("link_speed_gbps"));
        assert!(is_bare_ident("_x9"));
        assert!(!is_bare_ident(""));
        assert!(!is_bare_ident("9lives"));
        assert!(!is_bare_ident("has space"));
        assert!(!is_bare_ident("has-dash"));
        assert!(!is_bare_ident("true"));
    }

    #[test]
    fn eof_is_sticky() {
        // Repeated peeks past the end must not index out of bounds.
        let err = parse("b { x = ").unwrap_err();
        assert!(err.message.contains("expected"), "{err}");
    }
}
