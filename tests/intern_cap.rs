//! The process-global call/section name pool is capped: a stream that
//! names more distinct calls than `INTERN_CAP` is refused line by line,
//! and each refusal leaves the session and the pool unchanged.
//!
//! This test fills the pool, so it lives in a test binary of its own.

use overlap_core::stream::{intern_pool_len, SessionFold, StreamError, INTERN_CAP};

fn call_enter(i: usize) -> String {
    format!(r#"{{"scope":"cap","rank":0,"t":{i},"ev":"call_enter","name":"fn_{i}"}}"#)
}

#[test]
fn distinct_names_beyond_the_cap_are_refused_without_side_effects() {
    let mut s = SessionFold::default();
    s.push_line(r#"{"ev":"header","schema_version":1}"#)
        .expect("header");
    // A refused line interns nothing, even when its name is well-formed.
    for line in [
        r#"{"scope":"cap","rank":0,"t":0,"ev":"call_enter","name":"junk"}x"#,
        r#"{"scope":"cap","rank":0,"t":0,"ev":"section_begin","name":"junk","t":}"#,
    ] {
        s.push_line(line).expect_err("malformed");
        assert_eq!(intern_pool_len(), 0);
    }
    let mut refused = 0;
    for i in 0..5_000 {
        let before = (s.event_lines(), s.lines(), intern_pool_len());
        match s.push_line(&call_enter(i)) {
            Ok(()) => assert_eq!(s.event_lines(), before.0 + 1),
            Err(e) => {
                refused += 1;
                assert!(matches!(e, StreamError::BadLine { .. }), "{e:?}");
                let msg = e.to_string();
                assert!(
                    msg.contains("name pool full") && !msg.contains('\n'),
                    "{msg}"
                );
                assert_eq!((s.event_lines(), s.lines(), intern_pool_len()), before);
            }
        }
    }
    assert_eq!(intern_pool_len(), INTERN_CAP);
    assert_eq!(refused, 5_000 - INTERN_CAP);
    assert_eq!(s.event_lines(), INTERN_CAP as u64);

    // Names already in the pool still fold, on both parse paths.
    s.push_line(&call_enter(0)).expect("known name");
    s.push_line(r#"{"t":1,"scope":"cap","rank":0,"ev":"call_enter","name":"fn_1"}"#)
        .expect("known name, general reader");
    // A new name is refused the same way when the general reader parses it.
    let err = s
        .push_line(r#"{"t":1,"scope":"cap","rank":0,"ev":"section_begin","name":"fresh"}"#)
        .expect_err("pool is full");
    assert!(err.to_string().contains("name pool full"));
    assert_eq!(intern_pool_len(), INTERN_CAP);
    assert_eq!(s.event_lines(), INTERN_CAP as u64 + 2);
}
