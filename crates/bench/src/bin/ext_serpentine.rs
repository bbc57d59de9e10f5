//! Extension experiment: serpentine tape (the technology the paper scopes
//! out, stating its algorithms "would need to be modified").
//!
//! On a serpentine (multi-track) tape the logical block numbering snakes,
//! so the paper's single-pass sweep — read requests in ascending logical
//! order — is a boustrophedon that shuttles the tape once per occupied
//! track. That is fine for dense request sets but wasteful for sparse
//! ones, where a cost-model-aware nearest-neighbor order can hop between
//! tracks at matching longitudinal positions. This experiment quantifies
//! the gap as a function of the batch size, which is exactly the
//! modification the paper says its algorithms would need.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tapesim::model::{logical_sweep_order, nearest_neighbor_order, SerpentineModel, SlotIndex};
use tapesim::prelude::*;
use tapesim_bench::{write_csv, Flag, HarnessOpts};

fn main() {
    let opts = HarnessOpts::from_args(&[Flag::Out]);
    let m = SerpentineModel::dlt_like();
    let block = BlockSize::PAPER_DEFAULT;
    let slots = m.geometry.slots(block);
    println!(
        "Serpentine extension: {} — {} tracks x {} MB, {} slots of {}\n",
        m.name, m.geometry.tracks, m.geometry.track_length_mb, slots, block
    );

    let csv = {
        let mut t = Table::new([
            "batch",
            "fifo s",
            "logical sweep s",
            "nearest-neighbor s",
            "NN vs sweep",
        ]);
        let mut rng = StdRng::seed_from_u64(0x5E2F);
        for batch in [5usize, 10, 20, 50, 100, 200] {
            // Average over several random batches.
            let trials = 20;
            let (mut fifo_s, mut sweep_s, mut nn_s) = (0.0, 0.0, 0.0);
            for _ in 0..trials {
                let mut batch_slots: Vec<SlotIndex> = Vec::with_capacity(batch);
                while batch_slots.len() < batch {
                    let s = SlotIndex(rng.gen_range(0..slots));
                    if !batch_slots.contains(&s) {
                        batch_slots.push(s);
                    }
                }
                fifo_s += m.service_time(&batch_slots, block).as_secs_f64();
                sweep_s += m
                    .service_time(&logical_sweep_order(batch_slots.clone()), block)
                    .as_secs_f64();
                nn_s += m
                    .service_time(&nearest_neighbor_order(&m, block, batch_slots), block)
                    .as_secs_f64();
            }
            let n = trials as f64;
            t.push([
                batch.to_string(),
                fnum(fifo_s / n, 0),
                fnum(sweep_s / n, 0),
                fnum(nn_s / n, 0),
                format!("{:+.1}%", (nn_s / sweep_s - 1.0) * 100.0),
            ]);
        }
        println!("{}", t.to_aligned());
        t.to_csv()
    };
    write_csv(&opts, "ext_serpentine", &csv);
    println!(
        "(sorting by logical position — the paper's sweep — already beats FIFO, but a\n\
         cost-model-aware order recovers the cross-track savings the snake layout hides;\n\
         the gap is largest for sparse batches and closes as batches densify)"
    );
}
