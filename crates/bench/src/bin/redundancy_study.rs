//! Redundancy study: no redundancy vs NR replication vs `k + m` erasure
//! striping at matched storage expansion (E = 1.1 at PH-10), across a
//! permanent tape-loss fault axis.

use tapesim_bench::redundancy::{default_schemes, expected_rows, redundancy_csv, QUEUE_LENGTH};
use tapesim_bench::{write_csv, Flag, HarnessOpts};

fn main() {
    let opts = HarnessOpts::from_args(&[Flag::Scale, Flag::Out]);

    println!(
        "Redundancy study: {} schemes at matched expansion, closed queue {QUEUE_LENGTH}, PH-10 RH-40, envelope max-bandwidth\n",
        default_schemes().len()
    );
    let csv = redundancy_csv(opts.scale);
    let rows = csv.lines().count().saturating_sub(1);
    assert_eq!(
        rows,
        expected_rows(),
        "redundancy CSV must cover the full scheme × fault matrix"
    );
    write_csv(&opts, "redundancy_study", &csv);
    println!("(replication spends the expansion budget on placement freedom — one mount per\n read, cheapest copy; striping spends it on durability — two tape losses survived\n per stripe, at k mounts per hot read)");
}
