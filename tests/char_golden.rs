//! Golden digests of the characterization studies (Figs. 2, 4 and 6).
//!
//! Each figure runner's report is rendered with `{:?}` and hashed with
//! FNV-1a, at a 20 K-instruction budget. The digests pin every count of
//! every category at every bit width, so a change to a study kernel
//! (the Fig. 2 store comparison, the Fig. 4 partial tag probe or the
//! Fig. 6 branch-bit detection) that alters a single count fails here as
//! a named figure. Regenerate by running this test and copying the
//! `actual` side of the failure, then justify the diff like any
//! golden-hash change (see DESIGN.md).

use popk::core::hash;
use popk_bench::{fig2, fig4, fig6};
use std::fmt::Write as _;

const LIMIT: u64 = 20_000;

/// `figure digest` lines, one per runner call, in the order below.
const GOLDEN: &str = "\
fig2/bzip+gcc  a66da5a9a267f6a1
fig4/mcf/64k   2bf72d9e7898de4a
fig4/twolf/8k  2be94980aa81b206
fig6/all       599a5e52152ea9d0
";

#[test]
fn characterization_digests_are_pinned() {
    let rendered = [
        (
            "fig2/bzip+gcc",
            format!("{:?}", fig2(&["bzip", "gcc"], LIMIT)),
        ),
        ("fig4/mcf/64k", format!("{:?}", fig4("mcf", true, LIMIT))),
        (
            "fig4/twolf/8k",
            format!("{:?}", fig4("twolf", false, LIMIT)),
        ),
        ("fig6/all", format!("{:?}", fig6(LIMIT))),
    ];
    let mut table = String::new();
    for (figure, text) in &rendered {
        let digest = hash::fnv1a_64(text.as_bytes());
        let _ = writeln!(table, "{figure:<14} {digest:016x}");
    }
    assert_eq!(table, GOLDEN, "characterization digests moved");
}
