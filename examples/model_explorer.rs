//! Interactive-ish model explorer: estimate any `xQy` on either simulated
//! machine from the command line.
//!
//! ```text
//! cargo run --release --example model_explorer -- [t3d|paragon] [xQy ...]
//! cargo run --release --example model_explorer -- t3d 1Q1 8Q8 wQ64
//! ```
//!
//! For each operation it prints the buffer-packing and chained formulas,
//! their model estimates from the machine's simulated rate table, and the
//! end-to-end co-simulated rates.

use memcomm::commops::{run_exchange, ExchangeConfig, Style};
use memcomm::machines::{microbench, Machine};
use memcomm::model::{
    buffer_packing_expr, chained_expr, AccessPattern, BufferPackingPlan, ChainedPlan,
    ReceiveEngine, SendEngine,
};

fn parse_pattern(s: &str) -> Result<AccessPattern, String> {
    match s {
        "1" => Ok(AccessPattern::Contiguous),
        "w" => Ok(AccessPattern::Indexed),
        n => n
            .parse::<u32>()
            .map_err(|_| format!("bad pattern {s:?}: use 1, w, or a stride"))
            .and_then(|v| AccessPattern::strided(v).map_err(|e| e.to_string())),
    }
}

fn main() -> Result<(), String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let machine = match args.first().map(String::as_str) {
        Some("paragon") => {
            args.remove(0);
            Machine::paragon()
        }
        Some("t3d") => {
            args.remove(0);
            Machine::t3d()
        }
        _ => Machine::t3d(),
    };
    if args.is_empty() {
        args = vec!["1Q1".into(), "1Q64".into(), "64Q1".into(), "wQw".into()];
    }

    println!(
        "measuring basic transfers of the simulated {} ...",
        machine.name
    );
    let rates = microbench::measure_table(&machine, 8192).map_err(|e| e.to_string())?;
    let bp_plan = BufferPackingPlan {
        send: if machine.caps.fetch_send {
            SendEngine::Dma
        } else {
            SendEngine::Processor
        },
        ..BufferPackingPlan::default()
    };
    let ch_plan = ChainedPlan {
        recv: if machine.deposit_noncontiguous() {
            ReceiveEngine::Deposit
        } else {
            ReceiveEngine::Processor
        },
    };

    for op in &args {
        let (xs, ys) = op
            .split_once('Q')
            .ok_or_else(|| format!("operations are written xQy, got {op:?}"))?;
        let x = parse_pattern(xs)?;
        let y = parse_pattern(ys)?;
        let bp = buffer_packing_expr(x, y, bp_plan).map_err(|e| e.to_string())?;
        let ch = chained_expr(x, y, ch_plan).map_err(|e| e.to_string())?;
        println!("\n{op} on {}:", machine.name);
        println!("  buffer packing  {bp}");
        println!("  chained         {ch}");
        let bp_est = bp.estimate(&rates).map_err(|e| e.to_string())?;
        let ch_est = ch.estimate(&rates).map_err(|e| e.to_string())?;
        let cfg = ExchangeConfig {
            words: 4096,
            ..ExchangeConfig::default()
        };
        let bp_sim =
            run_exchange(&machine, x, y, Style::BufferPacking, &cfg).map_err(|e| e.to_string())?;
        let ch_sim =
            run_exchange(&machine, x, y, Style::Chained, &cfg).map_err(|e| e.to_string())?;
        println!("  model:      bp {bp_est}, chained {ch_est}");
        println!(
            "  simulated:  bp {}, chained {} (verified: {})",
            bp_sim.per_node(machine.clock()),
            ch_sim.per_node(machine.clock()),
            bp_sim.verified && ch_sim.verified
        );
    }
    Ok(())
}
