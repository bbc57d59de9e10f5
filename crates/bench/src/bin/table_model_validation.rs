//! Section 2.1 validation table: model vs measurement error over ten
//! random walks of 100 locate + read operations each.
//!
//! Paper reference: largest locate error 0.6%, mean 0.5%; largest read
//! error 4.6%, mean 2.6%.

use tapesim::prelude::*;
use tapesim_bench::{write_csv, Flag, HarnessOpts};

fn main() {
    let opts = HarnessOpts::from_args(&[Flag::Out]);
    let report = tapesim::model_validation();

    println!("Timing-model validation: 10 random walks x 100 locates+reads\n");
    let mut t = Table::new(["walk", "locate err %", "read err %"]);
    for (i, w) in report.walks.iter().enumerate() {
        t.push([
            (i + 1).to_string(),
            fnum(w.locate_rel_err * 100.0, 3),
            fnum(w.read_rel_err * 100.0, 3),
        ]);
    }
    println!("{}", t.to_aligned());
    println!(
        "locate: max {:.2}%  mean {:.2}%   (paper: 0.6% / 0.5%)",
        report.max_locate_rel_err * 100.0,
        report.mean_locate_rel_err * 100.0
    );
    println!(
        "read:   max {:.2}%  mean {:.2}%   (paper: 4.6% / 2.6%)",
        report.max_read_rel_err * 100.0,
        report.mean_read_rel_err * 100.0
    );
    write_csv(&opts, "table_model_validation", &t.to_csv());
}
