//! `swlb-fleet` — run either fleet role from one binary.
//!
//! ```text
//! swlb-fleet serve  [--addr 127.0.0.1:7520] [--dir swlb-fleet]
//!                   [--heartbeat-ms N] [--max-missed N] [--cap N]
//!                   [--quota tenant=N]... [--default-quota N]
//!                   [--aging-ticks N] [--no-rebalance]
//! swlb-fleet worker [--addr 127.0.0.1:0] [--dir swlb-fleet-worker]
//!                   [--controller HOST:PORT] [--capacity N]
//!                   [--slice-steps N] [--threads N] [--name NAME]
//! ```
//!
//! The controller banner is `swlb-fleet listening on ADDR (state in DIR)`;
//! the worker banner is `swlb-worker listening on ADDR (state in DIR)` —
//! both put the address at whitespace-token index 3, the convention the
//! crash-recovery tests parse.

use std::process::ExitCode;
use swlb_fleet::{Controller, FleetConfig};
use swlb_serve::{ServeClient, ServeConfig, Server};

type CliResult<T> = std::result::Result<T, String>;

fn usage() -> ExitCode {
    eprintln!(
        "usage: swlb-fleet serve  [--addr HOST:PORT] [--dir PATH] [--heartbeat-ms N] \
         [--max-missed N] [--cap N] [--quota tenant=N]... [--default-quota N] \
         [--aging-ticks N] [--no-rebalance]\n\
         \x20      swlb-fleet worker [--addr HOST:PORT] [--dir PATH] \
         [--controller HOST:PORT] [--capacity N] [--slice-steps N] [--threads N] \
         [--name NAME]"
    );
    ExitCode::FAILURE
}

fn flag_value(args: &[String], flag: &str) -> CliResult<Option<String>> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            return match it.next() {
                Some(v) => Ok(Some(v.clone())),
                None => Err(format!("{flag} needs a value")),
            };
        }
    }
    Ok(None)
}

fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("worker") => cmd_worker(&args[1..]),
        _ => usage(),
    }
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let parsed = (|| -> CliResult<FleetConfig> {
        let dir = flag_value(args, "--dir")?.unwrap_or_else(|| "swlb-fleet".into());
        let mut cfg = FleetConfig::new(dir);
        cfg.addr = flag_value(args, "--addr")?.unwrap_or_else(|| "127.0.0.1:7520".into());
        if let Some(v) = flag_value(args, "--heartbeat-ms")? {
            let ms: u64 = v.parse().map_err(|_| "--heartbeat-ms needs an integer")?;
            cfg.heartbeat = std::time::Duration::from_millis(ms.max(10));
        }
        if let Some(v) = flag_value(args, "--max-missed")? {
            cfg.max_missed = v.parse().map_err(|_| "--max-missed needs an integer")?;
        }
        if let Some(v) = flag_value(args, "--cap")? {
            cfg.per_worker_cap = v.parse().map_err(|_| "--cap needs an integer")?;
        }
        if let Some(v) = flag_value(args, "--default-quota")? {
            cfg.policy.default_quota =
                v.parse().map_err(|_| "--default-quota needs an integer")?;
        }
        if let Some(v) = flag_value(args, "--aging-ticks")? {
            cfg.policy.aging_ticks =
                v.parse().map_err(|_| "--aging-ticks needs an integer")?;
        }
        // --quota may repeat: one tenant=N pair each.
        let mut rest: &[String] = args;
        while let Some(pos) = rest.iter().position(|a| a == "--quota") {
            let v = rest.get(pos + 1).ok_or("--quota needs tenant=N")?;
            let (tenant, n) = v.split_once('=').ok_or("--quota needs tenant=N")?;
            let n: usize = n.parse().map_err(|_| "--quota needs tenant=N")?;
            cfg.policy.quotas.push((tenant.to_string(), n));
            rest = &rest[pos + 2..];
        }
        cfg.rebalance = !args.iter().any(|a| a == "--no-rebalance");
        Ok(cfg)
    })();
    let cfg = match parsed {
        Ok(c) => c,
        Err(e) => return fail(e),
    };
    let base_dir = cfg.base_dir.clone();
    let controller = match Controller::spawn(cfg) {
        Ok(c) => c,
        Err(e) => return fail(e),
    };
    println!(
        "swlb-fleet listening on {} (state in {})",
        controller.addr(),
        base_dir.display()
    );
    loop {
        std::thread::park();
    }
}

fn cmd_worker(args: &[String]) -> ExitCode {
    let parsed = (|| -> CliResult<(ServeConfig, Option<String>, String)> {
        let dir = flag_value(args, "--dir")?.unwrap_or_else(|| "swlb-fleet-worker".into());
        let name = flag_value(args, "--name")?.unwrap_or_else(|| dir.clone());
        let mut cfg = ServeConfig::new(dir);
        cfg.worker_routes = true;
        cfg.addr = flag_value(args, "--addr")?.unwrap_or_else(|| "127.0.0.1:0".into());
        if let Some(v) = flag_value(args, "--capacity")? {
            cfg.capacity = v.parse().map_err(|_| "--capacity needs an integer")?;
        }
        if let Some(v) = flag_value(args, "--slice-steps")? {
            cfg.slice_steps = v.parse().map_err(|_| "--slice-steps needs an integer")?;
        }
        if let Some(v) = flag_value(args, "--threads")? {
            cfg.threads = v.parse().map_err(|_| "--threads needs an integer")?;
        }
        Ok((cfg, flag_value(args, "--controller")?, name))
    })();
    let (cfg, controller, name) = match parsed {
        Ok(v) => v,
        Err(e) => return fail(e),
    };
    let base_dir = cfg.base_dir.clone();
    let server = match Server::spawn(cfg) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    println!(
        "swlb-worker listening on {} (state in {})",
        server.addr(),
        base_dir.display()
    );
    // After the announcement the controller drives everything through
    // heartbeats and pushes.
    if let Some(controller) = controller {
        let announced =
            ServeClient::new(controller.clone()).register_worker(&name, server.addr(), &base_dir);
        match announced {
            Ok(()) => println!("registered with controller at {controller}"),
            Err(e) => eprintln!("warning: could not register with controller at {controller}: {e}"),
        }
    }
    loop {
        std::thread::park();
    }
}
