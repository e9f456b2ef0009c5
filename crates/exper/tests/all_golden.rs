//! Golden output of `esvm all --quick --csv`: every table, figure and
//! extension experiment at quick scale must stay byte-identical to
//! `tests/fixtures/all_quick_golden.txt`.
//!
//! The fixture is the command's stdout, regenerated with
//! `esvm all --quick --csv > tests/fixtures/all_quick_golden.txt`. The
//! CSV form prints every sweep value at full precision, so any change
//! to a Monte-Carlo point, its seed order or a figure's assembly shows
//! up as a diff. The paper-scale counterpart is
//! `results/all_seeds50.txt`, which CI diffs against a 50-seed run.

use std::path::Path;

#[test]
fn all_quick_csv_matches_the_committed_golden() {
    let args: Vec<String> = ["all", "--quick", "--csv"].map(str::to_owned).to_vec();
    let out = esvm_exper::cli::run(&args).expect("esvm all --quick --csv");
    // The binary prints the rendered output plus one newline.
    let got = format!("{out}\n");
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/all_quick_golden.txt");
    let want = std::fs::read_to_string(&path).expect("read the golden");
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "esvm all --quick --csv drifted from {} at line {}",
            path.display(),
            line + 1
        );
    }
}
