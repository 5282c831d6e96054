//! The `main` of a test target built with `harness = false` that holds one
//! test measured by a process-wide counting allocator.
//!
//! libtest runs a test on a thread of its own while its main thread waits for
//! the result, and that wait allocates the first time it blocks.  When the
//! test thread reaches its measured window first — likely on a loaded CPU —
//! the count includes the harness's allocations.  A plain `main` runs the
//! test on the process's only thread besides the pool's workers, so a counter
//! that counts on every thread counts the test and the pool and nothing else.
//!
//! The output follows libtest's, and `--list`, `--exact`, `--skip`,
//! `--ignored` and name filters select as they do there; other options are
//! accepted and ignored.

use std::time::Instant;

/// Runs `test` as the one test of the binary and exits like libtest: status
/// 101 when it panics.
pub fn run(name: &str, test: fn()) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut filters = Vec::new();
    let mut skips = Vec::new();
    let (mut exact, mut list, mut ignored_only) = (false, false, false);
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--exact" => exact = true,
            "--list" => list = true,
            "--ignored" => ignored_only = true,
            "--skip" => skips.extend(args.next()),
            // Options that take a separate value.
            "--test-threads" | "--format" | "--color" | "--logfile" | "-Z" => {
                args.next();
            }
            option if option.starts_with('-') => {}
            filter => filters.push(filter),
        }
    }
    let matches = |pattern: &str| if exact { name == pattern } else { name.contains(pattern) };
    let selected = !ignored_only
        && (filters.is_empty() || filters.iter().any(|f| matches(f)))
        && !skips.iter().any(|s| matches(s));
    if list {
        if selected {
            println!("{name}: test");
        }
        return;
    }
    if !selected {
        println!("\nrunning 0 tests\n");
        println!("test result: ok. 0 passed; 0 failed; 0 ignored; 0 measured; 1 filtered out\n");
        return;
    }
    println!("\nrunning 1 test");
    let start = Instant::now();
    let passed = std::panic::catch_unwind(test).is_ok();
    let seconds = start.elapsed().as_secs_f64();
    if passed {
        println!("test {name} ... ok\n");
        println!(
            "test result: ok. 1 passed; 0 failed; 0 ignored; 0 measured; 0 filtered out; \
             finished in {seconds:.2}s\n"
        );
    } else {
        println!("test {name} ... FAILED\n\nfailures:\n    {name}\n");
        println!(
            "test result: FAILED. 0 passed; 1 failed; 0 ignored; 0 measured; 0 filtered out; \
             finished in {seconds:.2}s\n"
        );
        std::process::exit(101);
    }
}
