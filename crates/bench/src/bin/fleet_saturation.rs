//! Fleet saturation study: throughput and tail response versus fleet
//! size (libraries × drives × robot arms), contrasting in-library and
//! cross-library replica placement (NR ∈ {0, 1, 3}).

use tapesim_bench::fleet::{default_cases, expected_rows, saturation_csv, QUEUE_LENGTH};
use tapesim_bench::{write_csv, Flag, HarnessOpts};

fn main() {
    let opts = HarnessOpts::from_args(&[Flag::Scale, Flag::Out]);

    println!(
        "Fleet saturation: {} fleet shapes, closed queue {QUEUE_LENGTH}, PH-10 RH-40, envelope max-bandwidth\n",
        default_cases().len()
    );
    let csv = saturation_csv(opts.scale);
    let rows = csv.lines().count().saturating_sub(1);
    assert_eq!(
        rows,
        expected_rows(),
        "saturation CSV must cover the full case × NR × scope matrix"
    );
    write_csv(&opts, "fleet_saturation", &csv);
    println!("(robot arms bound drive scaling: past two drives per arm the exchange\n serializes mounts, and cross-library replicas trade arm relief for pass-through latency)");
}
