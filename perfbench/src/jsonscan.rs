//! A non-allocating JSON syntax check for large documents. A downloaded
//! Perfetto trace runs to tens of megabytes; building a `Value` tree of it
//! in the client would add hundreds of megabytes to the process high-water
//! the benchmark reports, so the client scans it instead.

/// Check that `bytes` is exactly one well-formed JSON object and return the
/// element count of its top-level `"traceEvents"` array (0 when absent).
pub fn trace_events(bytes: &[u8]) -> Result<usize, String> {
    let mut s = Scanner { b: bytes, i: 0 };
    s.ws();
    s.expect(b'{')?;
    let mut events = 0;
    s.ws();
    if s.peek() == Some(b'}') {
        s.i += 1;
    } else {
        loop {
            s.ws();
            let key = s.string()?;
            s.ws();
            s.expect(b':')?;
            s.ws();
            if key == b"traceEvents" && s.peek() == Some(b'[') {
                events = s.array(1)?;
            } else {
                s.value(1)?;
            }
            s.ws();
            match s.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                _ => return Err(s.error("expected , or }")),
            }
        }
    }
    s.ws();
    if s.i != bytes.len() {
        return Err(s.error("trailing bytes"));
    }
    Ok(events)
}

const MAX_DEPTH: usize = 128;

struct Scanner<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Scanner<'a> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let c = self.peek();
        self.i += 1;
        c
    }

    fn error(&self, what: &str) -> String {
        format!("malformed JSON at byte {}: {what}", self.i)
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.next() == Some(c) {
            Ok(())
        } else {
            Err(self.error(&format!("expected {}", c as char)))
        }
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<(), String> {
        if depth > MAX_DEPTH {
            return Err(self.error("nested too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1).map(drop),
            Some(b'"') => self.string().map(drop),
            Some(b't') => self.literal(b"true"),
            Some(b'f') => self.literal(b"false"),
            Some(b'n') => self.literal(b"null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<(), String> {
        self.expect(b'{')?;
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.ws();
            self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            self.value(depth)?;
            self.ws();
            match self.next() {
                Some(b',') => continue,
                Some(b'}') => return Ok(()),
                _ => return Err(self.error("expected , or }")),
            }
        }
    }

    /// Returns the element count.
    fn array(&mut self, depth: usize) -> Result<usize, String> {
        self.expect(b'[')?;
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(0);
        }
        let mut n = 0;
        loop {
            self.ws();
            self.value(depth)?;
            n += 1;
            self.ws();
            match self.next() {
                Some(b',') => continue,
                Some(b']') => return Ok(n),
                _ => return Err(self.error("expected , or ]")),
            }
        }
    }

    /// Returns the raw (still escaped) contents.
    fn string(&mut self) -> Result<&'a [u8], String> {
        self.expect(b'"')?;
        let start = self.i;
        loop {
            match self.next() {
                Some(b'"') => return Ok(&self.b[start..self.i - 1]),
                Some(b'\\') => match self.next() {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {}
                    Some(b'u') => {
                        for _ in 0..4 {
                            if !self.next().is_some_and(|c| c.is_ascii_hexdigit()) {
                                return Err(self.error("bad \\u escape"));
                            }
                        }
                    }
                    _ => return Err(self.error("bad escape")),
                },
                Some(c) if c >= 0x20 => {}
                _ => return Err(self.error("unterminated string")),
            }
        }
    }

    fn literal(&mut self, word: &[u8]) -> Result<(), String> {
        if self.b[self.i..].starts_with(word) {
            self.i += word.len();
            Ok(())
        } else {
            Err(self.error("bad literal"))
        }
    }

    fn number(&mut self) -> Result<(), String> {
        let digits = |s: &mut Self| {
            let start = s.i;
            while s.peek().is_some_and(|c| c.is_ascii_digit()) {
                s.i += 1;
            }
            s.i > start
        };
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        if !digits(self) {
            return Err(self.error("bad number"));
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            if !digits(self) {
                return Err(self.error("bad fraction"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if !digits(self) {
                return Err(self.error("bad exponent"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_trace_events_and_agrees_with_the_parser() {
        let doc = serde_json::json!({
            "displayTimeUnit": "ns",
            "traceEvents": [
                {"name": "a \"q\" \\u00e9", "ph": "X", "ts": 1.5e-3, "dur": -2, "args": {"x": [1, 2]}},
                {"name": "b", "ph": "M", "ok": true, "none": null},
            ],
        });
        let text = serde_json::to_string(&doc).expect("serializes");
        assert_eq!(trace_events(text.as_bytes()), Ok(2));
        assert_eq!(trace_events(b" {\"traceEvents\": []} "), Ok(0));
        assert_eq!(trace_events(b"{}"), Ok(0));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            &b""[..],
            b"[]",
            b"{\"traceEvents\": [1,]}",
            b"{\"traceEvents\": [1] ",
            b"{\"a\": tru}",
            b"{\"a\": 1} x",
            b"{\"a\": \"unterminated}",
            b"{\"a\": 01.}",
        ] {
            assert!(
                trace_events(bad).is_err(),
                "{:?}",
                String::from_utf8_lossy(bad)
            );
        }
    }
}
