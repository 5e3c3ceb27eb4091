//! Hand-written XML parser.
//!
//! A single-pass, byte-oriented parser that shreds directly into a
//! [`DocumentBuilder`] — no intermediate DOM. Supports the XML constructs
//! the annotation workloads need: elements, attributes (both quote styles),
//! character data with the five predefined entities plus numeric character
//! references, CDATA sections, comments, processing instructions, an XML
//! declaration, and DOCTYPE declarations (skipped, including an internal
//! subset). Namespace *declarations* are kept as plain attributes; QNames
//! are stored lexically.

use crate::builder::DocumentBuilder;
use crate::doc::Document;
use crate::error::ParseError;

/// Parser configuration.
#[derive(Clone, Copy, Debug)]
pub struct ParseOptions {
    /// Drop text nodes that consist solely of whitespace (indentation).
    /// Annotation documents are usually machine-generated and pretty-
    /// printed; the paper's region semantics never depend on ignorable
    /// whitespace, so this defaults to `true`.
    pub strip_whitespace_text: bool,
}

impl Default for ParseOptions {
    fn default() -> Self {
        ParseOptions {
            strip_whitespace_text: true,
        }
    }
}

/// Parse an XML document with default options.
pub fn parse_document(input: &str) -> Result<Document, ParseError> {
    parse_with_options(input, ParseOptions::default())
}

/// Parse an XML document with explicit options.
pub fn parse_with_options(input: &str, options: ParseOptions) -> Result<Document, ParseError> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
        options,
        builder: DocumentBuilder::with_capacity(input.len() / 32),
        depth: 0,
        seen_root: false,
        open_names: Vec::new(),
        text_buf: String::new(),
    };
    p.run()?;
    p.builder
        .finish()
        .map_err(|e| ParseError::new(e.to_string(), input, input.len()))
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    options: ParseOptions,
    builder: DocumentBuilder,
    depth: usize,
    seen_root: bool,
    open_names: Vec<&'a str>,
    text_buf: String,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(msg, self.input, self.pos)
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    #[inline]
    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn expect(&mut self, s: &str) -> Result<(), ParseError> {
        if self.starts_with(s) {
            self.bump(s.len());
            Ok(())
        } else {
            Err(self.err(format!("expected '{s}'")))
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            if b == b' ' || b == b'\t' || b == b'\r' || b == b'\n' {
                self.bump(1);
            } else {
                break;
            }
        }
    }

    /// Find `needle` at or after the current position; error mentions
    /// `context` if it is missing.
    fn find(&self, needle: &str, context: &str) -> Result<usize, ParseError> {
        self.input[self.pos..]
            .find(needle)
            .map(|i| self.pos + i)
            .ok_or_else(|| self.err(format!("unterminated {context}: missing '{needle}'")))
    }

    fn run(&mut self) -> Result<(), ParseError> {
        // Optional XML declaration.
        if self.starts_with("<?xml") {
            let end = self.find("?>", "XML declaration")?;
            self.pos = end + 2;
        }
        loop {
            match self.peek() {
                None => break,
                Some(b'<') => {
                    self.flush_text()?;
                    self.dispatch_markup()?;
                }
                Some(_) => self.consume_text()?,
            }
        }
        self.flush_text()?;
        if self.depth != 0 {
            return Err(self.err(format!(
                "unexpected end of input: <{}> not closed",
                self.open_names.last().unwrap_or(&"?")
            )));
        }
        if !self.seen_root {
            return Err(self.err("document has no root element"));
        }
        Ok(())
    }

    fn dispatch_markup(&mut self) -> Result<(), ParseError> {
        if self.starts_with("<!--") {
            self.parse_comment()
        } else if self.starts_with("<![CDATA[") {
            self.parse_cdata()
        } else if self.starts_with("<!DOCTYPE") {
            self.skip_doctype()
        } else if self.starts_with("<?") {
            self.parse_pi()
        } else if self.starts_with("</") {
            self.parse_end_tag()
        } else {
            self.parse_start_tag()
        }
    }

    fn parse_comment(&mut self) -> Result<(), ParseError> {
        self.bump(4); // <!--
        let end = self.find("-->", "comment")?;
        let content = &self.input[self.pos..end];
        if self.depth > 0 {
            self.builder.comment(content);
        }
        self.pos = end + 3;
        Ok(())
    }

    fn parse_cdata(&mut self) -> Result<(), ParseError> {
        if self.depth == 0 {
            return Err(self.err("CDATA outside the root element"));
        }
        self.bump(9); // <![CDATA[
        let end = self.find("]]>", "CDATA section")?;
        // CDATA content is literal: bypass entity decoding.
        self.text_buf.push_str(&self.input[self.pos..end]);
        self.pos = end + 3;
        Ok(())
    }

    fn skip_doctype(&mut self) -> Result<(), ParseError> {
        self.bump(9); // <!DOCTYPE
        let mut bracket_depth = 0usize;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated DOCTYPE")),
                Some(b'[') => {
                    bracket_depth += 1;
                    self.bump(1);
                }
                Some(b']') => {
                    bracket_depth = bracket_depth.saturating_sub(1);
                    self.bump(1);
                }
                Some(b'>') if bracket_depth == 0 => {
                    self.bump(1);
                    return Ok(());
                }
                Some(_) => self.bump(1),
            }
        }
    }

    fn parse_pi(&mut self) -> Result<(), ParseError> {
        self.bump(2); // <?
        let target = self.parse_name("processing-instruction target")?;
        let end = self.find("?>", "processing instruction")?;
        let content = self.input[self.pos..end].trim_start();
        if self.depth > 0 {
            self.builder.pi(target, content);
        }
        self.pos = end + 2;
        Ok(())
    }

    fn parse_name(&mut self, what: &str) -> Result<&'a str, ParseError> {
        let start = self.pos;
        match self.peek() {
            Some(b) if is_name_start(b) => self.bump(1),
            _ => return Err(self.err(format!("invalid {what}"))),
        }
        while let Some(b) = self.peek() {
            if is_name_char(b) {
                self.bump(1);
            } else {
                break;
            }
        }
        Ok(&self.input[start..self.pos])
    }

    fn parse_start_tag(&mut self) -> Result<(), ParseError> {
        self.bump(1); // <
        let name = self.parse_name("element name")?;
        if self.depth == 0 {
            if self.seen_root {
                return Err(self.err("multiple root elements"));
            }
            self.seen_root = true;
        }
        self.builder.start_element(name);
        self.depth += 1;
        self.open_names.push(name);

        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.bump(1);
                    return Ok(());
                }
                Some(b'/') => {
                    self.expect("/>")?;
                    self.builder.end_element();
                    self.depth -= 1;
                    self.open_names.pop();
                    return Ok(());
                }
                Some(b) if is_name_start(b) => {
                    let attr_name = self.parse_name("attribute name")?;
                    self.skip_ws();
                    self.expect("=")?;
                    self.skip_ws();
                    let value = self.parse_attr_value()?;
                    self.builder.attribute(attr_name, &value);
                }
                _ => return Err(self.err(format!("malformed start tag <{name}>"))),
            }
        }
    }

    fn parse_attr_value(&mut self) -> Result<String, ParseError> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err("attribute value must be quoted")),
        };
        self.bump(1);
        let quote_str = if quote == b'"' { "\"" } else { "'" };
        let end = self.find(quote_str, "attribute value")?;
        let raw = &self.input[self.pos..end];
        self.pos = end + 1;
        if raw.contains('<') {
            return Err(self.err("'<' not allowed in attribute value"));
        }
        decode_entities(raw, self.input, self.pos)
    }

    fn parse_end_tag(&mut self) -> Result<(), ParseError> {
        self.bump(2); // </
        let name = self.parse_name("end tag name")?;
        self.skip_ws();
        self.expect(">")?;
        match self.open_names.pop() {
            Some(open) if open == name => {
                self.builder.end_element();
                self.depth -= 1;
                Ok(())
            }
            Some(open) => {
                Err(self.err(format!("mismatched end tag </{name}>, expected </{open}>")))
            }
            None => Err(self.err(format!("unmatched end tag </{name}>"))),
        }
    }

    fn consume_text(&mut self) -> Result<(), ParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b'<' {
                break;
            }
            self.bump(1);
        }
        let raw = &self.input[start..self.pos];
        if self.depth == 0 {
            if !raw.trim().is_empty() {
                return Err(ParseError::new(
                    "text outside the root element",
                    self.input,
                    start,
                ));
            }
            return Ok(());
        }
        let decoded = decode_entities(raw, self.input, start)?;
        self.text_buf.push_str(&decoded);
        Ok(())
    }

    fn flush_text(&mut self) -> Result<(), ParseError> {
        if self.text_buf.is_empty() {
            return Ok(());
        }
        let keep =
            !self.options.strip_whitespace_text || !self.text_buf.chars().all(char::is_whitespace);
        if keep && self.depth > 0 {
            self.builder.text(&self.text_buf);
        }
        self.text_buf.clear();
        Ok(())
    }
}

#[inline]
fn is_name_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b':' || b >= 0x80
}

#[inline]
fn is_name_char(b: u8) -> bool {
    is_name_start(b) || b.is_ascii_digit() || b == b'-' || b == b'.'
}

/// Decode the five predefined entities and numeric character references.
/// `full_input`/`base_offset` are used only for error positions.
fn decode_entities(raw: &str, full_input: &str, base_offset: usize) -> Result<String, ParseError> {
    if !raw.contains('&') {
        return Ok(raw.to_string());
    }
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        let after = &rest[amp + 1..];
        let semi = after.find(';').ok_or_else(|| {
            ParseError::new("unterminated entity reference", full_input, base_offset)
        })?;
        let entity = &after[..semi];
        match entity {
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "amp" => out.push('&'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                let code = u32::from_str_radix(&entity[2..], 16).map_err(|_| {
                    ParseError::new(
                        format!("invalid character reference &{entity};"),
                        full_input,
                        base_offset,
                    )
                })?;
                out.push(char::from_u32(code).ok_or_else(|| {
                    ParseError::new(
                        format!("character reference &{entity}; out of range"),
                        full_input,
                        base_offset,
                    )
                })?);
            }
            _ if entity.starts_with('#') => {
                let code: u32 = entity[1..].parse().map_err(|_| {
                    ParseError::new(
                        format!("invalid character reference &{entity};"),
                        full_input,
                        base_offset,
                    )
                })?;
                out.push(char::from_u32(code).ok_or_else(|| {
                    ParseError::new(
                        format!("character reference &{entity}; out of range"),
                        full_input,
                        base_offset,
                    )
                })?);
            }
            _ => {
                return Err(ParseError::new(
                    format!("unknown entity &{entity};"),
                    full_input,
                    base_offset,
                ))
            }
        }
        rest = &after[semi + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{NodeId, NodeKind};

    #[test]
    fn minimal_document() {
        let d = parse_document("<a/>").unwrap();
        assert_eq!(d.node_count(), 2);
        assert_eq!(d.kind(1), NodeKind::Element);
        assert_eq!(d.node_name(NodeId::tree(1)).unwrap(), "a");
    }

    #[test]
    fn nested_elements_and_text() {
        let d = parse_document("<a><b>hello</b><c>world</c></a>").unwrap();
        d.check_invariants().unwrap();
        assert_eq!(d.string_value(NodeId::tree(1)).unwrap(), "helloworld");
        assert_eq!(d.elements_named("b"), &[2]);
        assert_eq!(d.elements_named("c"), &[4]);
    }

    #[test]
    fn attributes_both_quote_styles() {
        let d = parse_document(r#"<a x="1" y='2'/>"#).unwrap();
        assert_eq!(d.attribute(1, "x").unwrap().as_deref(), Some("1"));
        assert_eq!(d.attribute(1, "y").unwrap().as_deref(), Some("2"));
    }

    #[test]
    fn figure1_standoff_document_parses() {
        // The multimedia example from Figure 1 of the paper.
        let text = r#"<sample>
  <video>
    <shot id="Intro" start="0" end="8"/>
    <shot id="Interview" start="8" end="64"/>
    <shot id="Outro" start="64" end="94"/>
  </video>
  <audio>
    <music artist="U2" start="0" end="31"/>
    <music artist="Bach" start="52" end="94"/>
  </audio>
</sample>"#;
        let d = parse_document(text).unwrap();
        d.check_invariants().unwrap();
        assert_eq!(d.elements_named("shot").len(), 3);
        assert_eq!(d.elements_named("music").len(), 2);
        let intro = d.elements_named("shot")[0];
        assert_eq!(d.attribute(intro, "id").unwrap().as_deref(), Some("Intro"));
        assert_eq!(d.attribute(intro, "start").unwrap().as_deref(), Some("0"));
    }

    #[test]
    fn entity_decoding() {
        let d = parse_document("<a b=\"&lt;&amp;&gt;\">&quot;x&apos; &#65;&#x42;</a>").unwrap();
        assert_eq!(d.attribute(1, "b").unwrap().as_deref(), Some("<&>"));
        assert_eq!(d.string_value(NodeId::tree(1)).unwrap(), "\"x' AB");
    }

    #[test]
    fn cdata_is_literal() {
        let d = parse_document("<a><![CDATA[<not&an;entity>]]></a>").unwrap();
        assert_eq!(d.string_value(NodeId::tree(1)).unwrap(), "<not&an;entity>");
    }

    #[test]
    fn comments_and_pis() {
        let d = parse_document("<a><!-- note --><?php echo?></a>").unwrap();
        assert_eq!(d.kind(2), NodeKind::Comment);
        assert_eq!(d.tree().unwrap().value(2), " note ");
        assert_eq!(d.kind(3), NodeKind::Pi);
        assert_eq!(d.node_name(NodeId::tree(3)).unwrap(), "php");
    }

    #[test]
    fn xml_declaration_and_doctype_are_skipped() {
        let d =
            parse_document("<?xml version=\"1.0\"?>\n<!DOCTYPE a [ <!ELEMENT a EMPTY> ]>\n<a/>")
                .unwrap();
        assert_eq!(d.node_count(), 2);
    }

    #[test]
    fn whitespace_stripping_default() {
        let d = parse_document("<a>\n  <b/>\n</a>").unwrap();
        assert_eq!(d.node_count(), 3); // doc, a, b — whitespace dropped
        let d = parse_with_options(
            "<a>\n  <b/>\n</a>",
            ParseOptions {
                strip_whitespace_text: false,
            },
        )
        .unwrap();
        assert_eq!(d.node_count(), 5); // plus two whitespace text nodes
    }

    #[test]
    fn mismatched_tags_error() {
        let e = parse_document("<a><b></a></b>").unwrap_err();
        assert!(e.message.contains("mismatched"), "{e}");
    }

    #[test]
    fn unclosed_root_error() {
        let e = parse_document("<a><b/>").unwrap_err();
        assert!(e.message.contains("not closed"), "{e}");
    }

    #[test]
    fn multiple_roots_error() {
        let e = parse_document("<a/><b/>").unwrap_err();
        assert!(e.message.contains("multiple root"), "{e}");
    }

    #[test]
    fn text_outside_root_error() {
        let e = parse_document("<a/>junk").unwrap_err();
        assert!(e.message.contains("outside the root"), "{e}");
    }

    #[test]
    fn unknown_entity_error() {
        let e = parse_document("<a>&nope;</a>").unwrap_err();
        assert!(e.message.contains("unknown entity"), "{e}");
    }

    #[test]
    fn unquoted_attribute_error() {
        let e = parse_document("<a x=1/>").unwrap_err();
        assert!(e.message.contains("quoted"), "{e}");
    }

    #[test]
    fn error_positions_are_tracked() {
        let e = parse_document("<a>\n<b x=\"&bad;\"/></a>").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn large_flat_document() {
        let mut s = String::from("<root>");
        for i in 0..1000 {
            s.push_str(&format!("<item n=\"{i}\">v{i}</item>"));
        }
        s.push_str("</root>");
        let d = parse_document(&s).unwrap();
        d.check_invariants().unwrap();
        assert_eq!(d.elements_named("item").len(), 1000);
        assert_eq!(
            d.attribute(d.elements_named("item")[999], "n")
                .unwrap()
                .as_deref(),
            Some("999")
        );
    }
}
