//! Pinned CLI outputs for the sketch storage layout and the stream
//! driver: the generated instance bytes, `estimate` stdout at several
//! shard counts, the wire bytes of `worker` replicas, and the stdout of
//! `estimate`, `report` and `budget` under each way of feeding the
//! stream (per edge, batched, sharded with the default batch), for
//! every generator × seed below.
//!
//! How a sketch lays out its bottom-k values and keyed tables is an
//! implementation detail: the logical state, every estimate and every
//! wire byte must not depend on it. The table was generated while the
//! pre-arena layout (`BTreeSet` / `std` `HashMap`) still shipped next
//! to the arena one and both produced it, so it pins the arena layout
//! to the reference outputs without keeping the reference code alive.
//!
//! On a mismatch the test prints the full table as observed, in the
//! same literal syntax as `PINNED`.

use std::path::PathBuf;
use std::process::Command;

const KINDS: [&str; 3] = ["uniform", "zipf", "planted"];
const SEEDS: [&str; 2] = ["3", "11"];
const SHARDS: [&str; 4] = ["1", "2", "4", "7"];

/// `(what was run, what it produced)`: stdout verbatim, or a file's
/// length and FNV-1a-64 digest.
type Pin = (&'static str, &'static str);

#[rustfmt::skip]
const PINNED: &[Pin] = &[
    ("uniform 3 instance", "3216 bytes, fnv1a64 0xdafa7187d781cb27"),
    ("uniform 3 estimate --shards 1", "estimate      = 53.7\nwinning z     = 512\nwinner        = Some(SmallSet)\ntrivial       = false\nspace (words) = 36572\nstream edges  = 480\n"),
    ("uniform 3 estimate --shards 2", "estimate      = 53.7\nwinning z     = 512\nwinner        = Some(SmallSet)\ntrivial       = false\nspace (words) = 36490\nstream edges  = 480\n"),
    ("uniform 3 estimate --shards 4", "estimate      = 53.7\nwinning z     = 512\nwinner        = Some(SmallSet)\ntrivial       = false\nspace (words) = 36490\nstream edges  = 480\n"),
    ("uniform 3 estimate --shards 7", "estimate      = 53.7\nwinning z     = 512\nwinner        = Some(SmallSet)\ntrivial       = false\nspace (words) = 36492\nstream edges  = 480\n"),
    ("uniform 3 driver: estimate", "estimate      = 53.7\nwinning z     = 512\nwinner        = Some(SmallSet)\ntrivial       = false\nspace (words) = 36572\nstream edges  = 480\n"),
    ("uniform 3 driver: estimate --shards 3", "estimate      = 53.7\nwinning z     = 512\nwinner        = Some(SmallSet)\ntrivial       = false\nspace (words) = 36494\nstream edges  = 480\n"),
    ("uniform 3 driver: report", "reported sets  = [1, 12, 36, 38, 39, 53]\nreal coverage  = 47\nestimate       = 53.7\nwinner         = Some(SmallSet)\nspace (words)  = 43097\n"),
    ("uniform 3 driver: report --shards 3 --batch 128", "reported sets  = [1, 12, 36, 38, 39, 53]\nreal coverage  = 47\nestimate       = 53.7\nwinner         = Some(SmallSet)\nspace (words)  = 43019\n"),
    ("uniform 3 driver: budget --words 2000000", "budget         = 2000000 words\nfitted alpha   = 1.00\npredicted max  = 618468 words\nestimate       = 21.5\nactual space   = 83827 words\n"),
    ("uniform 3 driver: budget --words 2000000 --shards 2", "budget         = 2000000 words\nfitted alpha   = 1.00\npredicted max  = 618468 words\nestimate       = 21.5\nactual space   = 83827 words\n"),
    ("uniform 3 worker --shards 1", "339824 bytes, fnv1a64 0x7b8726a8cc5b7d16"),
    ("uniform 11 instance", "3220 bytes, fnv1a64 0x43ff4c499ecf1a95"),
    ("uniform 11 estimate --shards 1", "estimate      = 45.4\nwinning z     = 512\nwinner        = Some(SmallSet)\ntrivial       = false\nspace (words) = 36132\nstream edges  = 480\n"),
    ("uniform 11 estimate --shards 2", "estimate      = 45.4\nwinning z     = 512\nwinner        = Some(SmallSet)\ntrivial       = false\nspace (words) = 36062\nstream edges  = 480\n"),
    ("uniform 11 estimate --shards 4", "estimate      = 45.4\nwinning z     = 512\nwinner        = Some(SmallSet)\ntrivial       = false\nspace (words) = 36078\nstream edges  = 480\n"),
    ("uniform 11 estimate --shards 7", "estimate      = 45.4\nwinning z     = 512\nwinner        = Some(SmallSet)\ntrivial       = false\nspace (words) = 36092\nstream edges  = 480\n"),
    ("uniform 11 driver: estimate", "estimate      = 45.4\nwinning z     = 512\nwinner        = Some(SmallSet)\ntrivial       = false\nspace (words) = 36132\nstream edges  = 480\n"),
    ("uniform 11 driver: estimate --shards 3", "estimate      = 45.4\nwinning z     = 512\nwinner        = Some(SmallSet)\ntrivial       = false\nspace (words) = 36110\nstream edges  = 480\n"),
    ("uniform 11 driver: report", "reported sets  = [0, 9, 34, 35, 45, 46]\nreal coverage  = 47\nestimate       = 45.4\nwinner         = Some(SmallSet)\nspace (words)  = 42774\n"),
    ("uniform 11 driver: report --shards 3 --batch 128", "reported sets  = [0, 9, 34, 35, 45, 46]\nreal coverage  = 47\nestimate       = 45.4\nwinner         = Some(SmallSet)\nspace (words)  = 42752\n"),
    ("uniform 11 driver: budget --words 2000000", "budget         = 2000000 words\nfitted alpha   = 1.00\npredicted max  = 618468 words\nestimate       = 22.0\nactual space   = 83406 words\n"),
    ("uniform 11 driver: budget --words 2000000 --shards 2", "budget         = 2000000 words\nfitted alpha   = 1.00\npredicted max  = 618468 words\nestimate       = 22.0\nactual space   = 83406 words\n"),
    ("uniform 11 worker --shards 1", "333232 bytes, fnv1a64 0x0dc47ae471f49c9e"),
    ("zipf 3 instance", "2134 bytes, fnv1a64 0x15befc89e56e0e4a"),
    ("zipf 3 estimate --shards 1", "estimate      = 47.6\nwinning z     = 256\nwinner        = Some(SmallSet)\ntrivial       = false\nspace (words) = 25313\nstream edges  = 341\n"),
    ("zipf 3 estimate --shards 2", "estimate      = 47.6\nwinning z     = 256\nwinner        = Some(SmallSet)\ntrivial       = false\nspace (words) = 25257\nstream edges  = 341\n"),
    ("zipf 3 estimate --shards 4", "estimate      = 47.6\nwinning z     = 256\nwinner        = Some(SmallSet)\ntrivial       = false\nspace (words) = 25277\nstream edges  = 341\n"),
    ("zipf 3 estimate --shards 7", "estimate      = 47.6\nwinning z     = 256\nwinner        = Some(SmallSet)\ntrivial       = false\nspace (words) = 25285\nstream edges  = 341\n"),
    ("zipf 3 driver: estimate", "estimate      = 47.6\nwinning z     = 256\nwinner        = Some(SmallSet)\ntrivial       = false\nspace (words) = 25313\nstream edges  = 341\n"),
    ("zipf 3 driver: estimate --shards 3", "estimate      = 47.6\nwinning z     = 256\nwinner        = Some(SmallSet)\ntrivial       = false\nspace (words) = 25277\nstream edges  = 341\n"),
    ("zipf 3 driver: report", "reported sets  = [1, 2, 5, 6, 11, 13]\nreal coverage  = 88\nestimate       = 47.6\nwinner         = Some(SmallSet)\nspace (words)  = 30422\n"),
    ("zipf 3 driver: report --shards 3 --batch 128", "reported sets  = [1, 2, 5, 6, 11, 13]\nreal coverage  = 88\nestimate       = 47.6\nwinner         = Some(SmallSet)\nspace (words)  = 30386\n"),
    ("zipf 3 driver: budget --words 2000000", "budget         = 2000000 words\nfitted alpha   = 1.00\npredicted max  = 618468 words\nestimate       = 67.5\nactual space   = 69249 words\n"),
    ("zipf 3 driver: budget --words 2000000 --shards 2", "budget         = 2000000 words\nfitted alpha   = 1.00\npredicted max  = 618468 words\nestimate       = 67.5\nactual space   = 69249 words\n"),
    ("zipf 3 worker --shards 1", "249752 bytes, fnv1a64 0x36d0d4230ea1e55e"),
    ("zipf 11 instance", "2140 bytes, fnv1a64 0xab56989e4c3d8259"),
    ("zipf 11 estimate --shards 1", "estimate      = 61.9\nwinning z     = 512\nwinner        = Some(SmallSet)\ntrivial       = false\nspace (words) = 27538\nstream edges  = 341\n"),
    ("zipf 11 estimate --shards 2", "estimate      = 61.9\nwinning z     = 512\nwinner        = Some(SmallSet)\ntrivial       = false\nspace (words) = 27456\nstream edges  = 341\n"),
    ("zipf 11 estimate --shards 4", "estimate      = 61.9\nwinning z     = 512\nwinner        = Some(SmallSet)\ntrivial       = false\nspace (words) = 27514\nstream edges  = 341\n"),
    ("zipf 11 estimate --shards 7", "estimate      = 61.9\nwinning z     = 512\nwinner        = Some(SmallSet)\ntrivial       = false\nspace (words) = 27518\nstream edges  = 341\n"),
    ("zipf 11 driver: estimate", "estimate      = 61.9\nwinning z     = 512\nwinner        = Some(SmallSet)\ntrivial       = false\nspace (words) = 27538\nstream edges  = 341\n"),
    ("zipf 11 driver: estimate --shards 3", "estimate      = 61.9\nwinning z     = 512\nwinner        = Some(SmallSet)\ntrivial       = false\nspace (words) = 27512\nstream edges  = 341\n"),
    ("zipf 11 driver: report", "reported sets  = [0, 10, 13, 32, 39, 43]\nreal coverage  = 94\nestimate       = 61.9\nwinner         = Some(SmallSet)\nspace (words)  = 33022\n"),
    ("zipf 11 driver: report --shards 3 --batch 128", "reported sets  = [0, 10, 13, 32, 39, 43]\nreal coverage  = 94\nestimate       = 61.9\nwinner         = Some(SmallSet)\nspace (words)  = 32996\n"),
    ("zipf 11 driver: budget --words 2000000", "budget         = 2000000 words\nfitted alpha   = 1.00\npredicted max  = 618468 words\nestimate       = 69.7\nactual space   = 69226 words\n"),
    ("zipf 11 driver: budget --words 2000000 --shards 2", "budget         = 2000000 words\nfitted alpha   = 1.00\npredicted max  = 618468 words\nestimate       = 69.7\nactual space   = 69226 words\n"),
    ("zipf 11 worker --shards 1", "264480 bytes, fnv1a64 0x75ed18cff04b713c"),
    ("zipf 11 worker --shards 3 --shard 0", "145528 bytes, fnv1a64 0xd83a099d047c96e5"),
    ("zipf 11 worker --shards 3 --shard 1", "149464 bytes, fnv1a64 0x6daeec2b54c75dc4"),
    ("zipf 11 worker --shards 3 --shard 2", "148792 bytes, fnv1a64 0x2bc3e666cc38aa4e"),
    ("zipf 11 merge-from", "estimate      = 61.9\nwinning z     = 512\nwinner        = Some(SmallSet)\ntrivial       = false\nspace (words) = 27512\nstream edges  = 341\n"),
    ("planted 3 instance", "7660 bytes, fnv1a64 0x7e7778dde5c544bd"),
    ("planted 3 estimate --shards 1", "estimate      = 80.5\nwinning z     = 512\nwinner        = Some(SmallSet)\ntrivial       = false\nspace (words) = 73644\nstream edges  = 1167\n"),
    ("planted 3 estimate --shards 2", "estimate      = 80.5\nwinning z     = 512\nwinner        = Some(SmallSet)\ntrivial       = false\nspace (words) = 73578\nstream edges  = 1167\n"),
    ("planted 3 estimate --shards 4", "estimate      = 80.5\nwinning z     = 512\nwinner        = Some(SmallSet)\ntrivial       = false\nspace (words) = 73596\nstream edges  = 1167\n"),
    ("planted 3 estimate --shards 7", "estimate      = 80.5\nwinning z     = 512\nwinner        = Some(SmallSet)\ntrivial       = false\nspace (words) = 73586\nstream edges  = 1167\n"),
    ("planted 3 driver: estimate", "estimate      = 80.5\nwinning z     = 512\nwinner        = Some(SmallSet)\ntrivial       = false\nspace (words) = 73644\nstream edges  = 1167\n"),
    ("planted 3 driver: estimate --shards 3", "estimate      = 80.5\nwinning z     = 512\nwinner        = Some(SmallSet)\ntrivial       = false\nspace (words) = 73624\nstream edges  = 1167\n"),
    ("planted 3 driver: report", "reported sets  = [1, 18, 22, 56, 58, 59]\nreal coverage  = 120\nestimate       = 80.5\nwinner         = Some(SmallSet)\nspace (words)  = 80526\n"),
    ("planted 3 driver: report --shards 3 --batch 128", "reported sets  = [1, 18, 22, 56, 58, 59]\nreal coverage  = 120\nestimate       = 80.5\nwinner         = Some(SmallSet)\nspace (words)  = 80506\n"),
    ("planted 3 driver: budget --words 2000000", "budget         = 2000000 words\nfitted alpha   = 1.00\npredicted max  = 618468 words\nestimate       = 128.0\nactual space   = 148294 words\n"),
    ("planted 3 driver: budget --words 2000000 --shards 2", "budget         = 2000000 words\nfitted alpha   = 1.00\npredicted max  = 618468 words\nestimate       = 128.0\nactual space   = 148294 words\n"),
    ("planted 3 worker --shards 1", "636400 bytes, fnv1a64 0xe9a6d0f1c59c343c"),
    ("planted 11 instance", "7653 bytes, fnv1a64 0x1024d6619f557cc6"),
    ("planted 11 estimate --shards 1", "estimate      = 86.7\nwinning z     = 512\nwinner        = Some(SmallSet)\ntrivial       = false\nspace (words) = 71817\nstream edges  = 1165\n"),
    ("planted 11 estimate --shards 2", "estimate      = 86.7\nwinning z     = 512\nwinner        = Some(SmallSet)\ntrivial       = false\nspace (words) = 71767\nstream edges  = 1165\n"),
    ("planted 11 estimate --shards 4", "estimate      = 86.7\nwinning z     = 512\nwinner        = Some(SmallSet)\ntrivial       = false\nspace (words) = 71809\nstream edges  = 1165\n"),
    ("planted 11 estimate --shards 7", "estimate      = 86.7\nwinning z     = 512\nwinner        = Some(SmallSet)\ntrivial       = false\nspace (words) = 71811\nstream edges  = 1165\n"),
    ("planted 11 driver: estimate", "estimate      = 86.7\nwinning z     = 512\nwinner        = Some(SmallSet)\ntrivial       = false\nspace (words) = 71817\nstream edges  = 1165\n"),
    ("planted 11 driver: estimate --shards 3", "estimate      = 86.7\nwinning z     = 512\nwinner        = Some(SmallSet)\ntrivial       = false\nspace (words) = 71821\nstream edges  = 1165\n"),
    ("planted 11 driver: report", "reported sets  = [1, 2, 7, 11, 17, 46]\nreal coverage  = 183\nestimate       = 86.7\nwinner         = Some(SmallSet)\nspace (words)  = 78738\n"),
    ("planted 11 driver: report --shards 3 --batch 128", "reported sets  = [1, 2, 7, 11, 17, 46]\nreal coverage  = 183\nestimate       = 86.7\nwinner         = Some(SmallSet)\nspace (words)  = 78742\n"),
    ("planted 11 driver: budget --words 2000000", "budget         = 2000000 words\nfitted alpha   = 1.00\npredicted max  = 618468 words\nestimate       = 134.2\nactual space   = 147657 words\n"),
    ("planted 11 driver: budget --words 2000000 --shards 2", "budget         = 2000000 words\nfitted alpha   = 1.00\npredicted max  = 618468 words\nestimate       = 134.2\nactual space   = 147657 words\n"),
    ("planted 11 worker --shards 1", "618712 bytes, fnv1a64 0x94c808100b5ff0cd"),
];

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn tmp_file(name: &str) -> PathBuf {
    let pid = std::process::id();
    std::env::temp_dir().join(format!("maxkcov-storage-pinned-{pid}-{name}"))
}

/// stdout of a successful `maxkcov` run.
fn stdout_of(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_maxkcov"))
        .args(args)
        .output()
        .expect("binary should execute");
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

/// A file's length and digest, as pinned.
fn digest(path: &PathBuf) -> String {
    let bytes = std::fs::read(path).expect("file written");
    format!("{} bytes, fnv1a64 {:#018x}", bytes.len(), fnv1a64(&bytes))
}

/// Run one worker and digest its replica file.
fn worker_replica(input: &str, seed: &str, shards: usize, shard: usize) -> (PathBuf, String) {
    let out = tmp_file(&format!("replica-{seed}-{shards}-{shard}.bin"));
    let (shards_s, shard_s) = (shards.to_string(), shard.to_string());
    let _ = stdout_of(&[
        "worker", "--input", input, "--k", "6", "--alpha", "4", "--seed", seed, "--batch", "128",
        "--shards", &shards_s, "--shard", &shard_s, "--out", out.to_str().unwrap(),
    ]);
    let pin = digest(&out);
    (out, pin)
}

/// The stream-driver rows: each subcommand under each way of feeding
/// the stream, with exactly the flags named (`estimate --shards N`
/// above always passes `--batch 128`).
const DRIVER: [&[&str]; 6] = [
    &["estimate"],
    &["estimate", "--shards", "3"],
    &["report"],
    &["report", "--shards", "3", "--batch", "128"],
    &["budget", "--words", "2000000"],
    &["budget", "--words", "2000000", "--shards", "2"],
];

/// stdout of `maxkcov <run>` on `input` with k = 6 (and α = 4 unless
/// the subcommand fits α itself).
fn driver(input: &str, seed: &str, run: &[&str]) -> String {
    let mut args = vec![run[0], "--input", input, "--k", "6", "--seed", seed];
    if run[0] != "budget" {
        args.extend(["--alpha", "4"]);
    }
    args.extend(&run[1..]);
    stdout_of(&args)
}

fn estimate(input: &str, seed: &str, shards: &str) -> String {
    stdout_of(&[
        "estimate", "--input", input, "--k", "6", "--alpha", "4", "--seed", seed, "--batch", "128",
        "--shards", shards,
    ])
}

#[test]
fn storage_outputs_match_the_pinned_table() {
    let mut observed: Vec<(String, String)> = Vec::new();
    for kind in KINDS {
        for seed in SEEDS {
            let input = tmp_file(&format!("{kind}-{seed}.txt"));
            let input_s = input.to_str().unwrap();
            let _ = stdout_of(&[
                "gen", "--kind", kind, "--n", "400", "--m", "60", "--k", "6", "--seed", seed,
                "--out", input_s,
            ]);
            observed.push((format!("{kind} {seed} instance"), digest(&input)));
            for shards in SHARDS {
                observed.push((
                    format!("{kind} {seed} estimate --shards {shards}"),
                    estimate(input_s, seed, shards),
                ));
            }
            for run in DRIVER {
                observed.push((
                    format!("{kind} {seed} driver: {}", run.join(" ")),
                    driver(input_s, seed, run),
                ));
            }
            let (replica, pin) = worker_replica(input_s, seed, 1, 0);
            let _ = std::fs::remove_file(replica);
            observed.push((format!("{kind} {seed} worker --shards 1"), pin));

            // The distributed path: three replicas, merged in a separate
            // process, must agree with the single-process sharded run.
            if (kind, seed) == ("zipf", "11") {
                let mut replicas = Vec::new();
                for shard in 0..3 {
                    let (replica, pin) = worker_replica(input_s, seed, 3, shard);
                    let what = format!("{kind} {seed} worker --shards 3 --shard {shard}");
                    observed.push((what, pin));
                    replicas.push(replica);
                }
                let mut merge_args = vec!["merge-from"];
                merge_args.extend(replicas.iter().map(|p| p.to_str().unwrap()));
                let merged = stdout_of(&merge_args);
                assert_eq!(
                    merged,
                    estimate(input_s, seed, "3"),
                    "merged replicas disagree with the single-process sharded run"
                );
                observed.push((format!("{kind} {seed} merge-from"), merged));
                for replica in replicas {
                    let _ = std::fs::remove_file(replica);
                }
            }
            let _ = std::fs::remove_file(&input);
        }
    }
    let matches = observed.len() == PINNED.len()
        && observed
            .iter()
            .zip(PINNED)
            .all(|((what, got), (pin_what, pin_got))| what == pin_what && got == pin_got);
    if !matches {
        let table: String = observed
            .iter()
            .map(|(what, got)| format!("    ({what:?}, {got:?}),\n"))
            .collect();
        panic!("storage outputs differ from the pinned table; observed:\n{table}");
    }
}
