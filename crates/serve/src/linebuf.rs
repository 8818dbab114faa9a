//! Byte-accurate request-line accumulation for the reactor's connections.
//!
//! Why not `BufReader::read_line`: it **truncates the partial line away
//! when a read fails** (`read_line` restores the buffer's original length
//! on `Err` — `WouldBlock` included — to keep it valid UTF-8), so a client
//! whose request arrives in several chunks has its earlier bytes silently
//! dropped and the eventual reassembled line mangled. [`LineBuffer`]
//! accumulates raw bytes in a `Vec<u8>` instead: a read that ends mid-line
//! leaves every byte in place and the next one appends after them,
//! whatever the timing.

/// Accumulates raw bytes and yields complete `\n`-terminated lines.
///
/// UTF-8 is validated per line (mirroring the `read_line` contract the wire
/// protocol always had): an invalid line is reported as
/// [`LineError::Utf8`], which callers treat as connection-fatal.
#[derive(Debug, Default)]
pub(crate) struct LineBuffer {
    buf: Vec<u8>,
    /// Resume point for the newline scan: bytes before this offset were
    /// already scanned without finding `\n`, so a retry after a short read
    /// does not rescan them.
    scanned: usize,
}

/// Why a line could not be produced.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum LineError {
    /// The line bytes are not valid UTF-8 (connection-fatal, as with the
    /// old `read_line` path).
    Utf8,
}

impl LineBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends freshly read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (complete or partial).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is buffered.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Pops the next complete line (without its `\n`; a trailing `\r` is
    /// kept — the protocol trims whitespace later). Returns `None` when no
    /// complete line is buffered yet.
    pub fn next_line(&mut self) -> Option<Result<String, LineError>> {
        let nl = self.buf[self.scanned..]
            .iter()
            .position(|&b| b == b'\n')
            .map(|i| self.scanned + i);
        match nl {
            Some(nl) => {
                let rest = self.buf.split_off(nl + 1);
                let mut line = std::mem::replace(&mut self.buf, rest);
                line.pop(); // the '\n'
                self.scanned = 0;
                Some(String::from_utf8(line).map_err(|_| LineError::Utf8))
            }
            None => {
                self.scanned = self.buf.len();
                None
            }
        }
    }

    /// Takes whatever is buffered as a final, unterminated line — the EOF
    /// path: a one-shot client that half-closes without a trailing `\n`
    /// still deserves an answer. Returns `None` when nothing is buffered.
    pub fn take_trailing(&mut self) -> Option<Result<String, LineError>> {
        if self.buf.is_empty() {
            return None;
        }
        self.scanned = 0;
        let line = std::mem::take(&mut self.buf);
        Some(String::from_utf8(line).map_err(|_| LineError::Utf8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drip_fed_bytes_reassemble_across_arbitrary_chunking() {
        // The regression the old read_line path failed: a line arriving
        // one byte at a time, with "timeouts" (empty extends) in between.
        let line = r#"{"id":7,"op":"index_stats"}"#;
        let mut lb = LineBuffer::new();
        for b in line.as_bytes() {
            assert!(lb.next_line().is_none(), "no line before the newline");
            lb.extend(&[*b]);
        }
        lb.extend(b"\n");
        assert_eq!(lb.next_line().unwrap().unwrap(), line);
        assert!(lb.is_empty());
        assert!(lb.next_line().is_none());
    }

    #[test]
    fn multiple_lines_in_one_chunk_pop_in_order() {
        let mut lb = LineBuffer::new();
        lb.extend(b"first\nsecond\npart");
        assert_eq!(lb.next_line().unwrap().unwrap(), "first");
        assert_eq!(lb.next_line().unwrap().unwrap(), "second");
        assert!(lb.next_line().is_none());
        assert_eq!(lb.len(), 4);
        lb.extend(b"ial\n");
        assert_eq!(lb.next_line().unwrap().unwrap(), "partial");
    }

    #[test]
    fn trailing_line_is_recovered_at_eof() {
        let mut lb = LineBuffer::new();
        lb.extend(b"unterminated request");
        assert!(lb.next_line().is_none());
        assert_eq!(lb.take_trailing().unwrap().unwrap(), "unterminated request");
        assert!(lb.take_trailing().is_none(), "taken exactly once");
    }

    #[test]
    fn invalid_utf8_is_a_typed_error() {
        let mut lb = LineBuffer::new();
        lb.extend(&[0xff, 0xfe, b'\n']);
        assert_eq!(lb.next_line().unwrap().unwrap_err(), LineError::Utf8);
        let mut lb = LineBuffer::new();
        lb.extend(&[0xff, 0xfe]);
        assert_eq!(lb.take_trailing().unwrap().unwrap_err(), LineError::Utf8);
    }

    #[test]
    fn scan_resume_does_not_miss_a_newline_on_the_chunk_boundary() {
        let mut lb = LineBuffer::new();
        lb.extend(b"abc");
        assert!(lb.next_line().is_none());
        lb.extend(b"\ndef");
        assert_eq!(lb.next_line().unwrap().unwrap(), "abc");
        lb.extend(b"\n");
        assert_eq!(lb.next_line().unwrap().unwrap(), "def");
    }
}
