//! Instance headers whose ids cannot fit the `u32` edge fields are
//! rejected with a typed parse error, by both readers, before any edge
//! is cast (a header of `2^33 2` once let element `2^32 + 1` alias
//! element `1`).

use kcov_stream::{read_edges, EdgeChunkReader};

#[test]
fn headers_beyond_u32_ids_are_parse_errors() {
    for header in ["8589934592 2", "4294967297 2", "2 4294967297", "18446744073709551615 1"] {
        let text = format!("# comment\n{header}\n4294967297 1\n");
        let e = read_edges(text.as_bytes()).expect_err(header);
        assert_eq!(e.line, 2, "{header}: {e}");
        assert!(e.message.contains("fit u32"), "{header}: {e}");
        let e = EdgeChunkReader::new(text.as_bytes(), 4).expect_err(header);
        assert_eq!(e.line, 2, "{header}: {e}");
        assert!(e.message.contains("fit u32"), "{header}: {e}");
    }
}

#[test]
fn the_largest_u32_shape_is_accepted() {
    // n = m = 2^32: every id in 0..2^32 fits, including the last one.
    let text = "4294967296 4294967296\n4294967295 4294967295\n";
    let (n, m, edges) = read_edges(text.as_bytes()).unwrap();
    assert_eq!((n, m), (1 << 32, 1 << 32));
    assert_eq!((edges[0].set, edges[0].elem), (u32::MAX, u32::MAX));
    let mut reader = EdgeChunkReader::new(text.as_bytes(), 4).unwrap();
    assert_eq!((reader.n(), reader.m()), (1 << 32, 1 << 32));
    assert_eq!(reader.next_chunk().unwrap().unwrap().len(), 1);
}
