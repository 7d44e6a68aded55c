//! Load driver: replay a `workload` trace against a live [`Server`].
//!
//! Bridges the deterministic evaluation world and the threaded runtime: a
//! trace generated for the figures can be fired at the real server in
//! compressed time, and the collected replies scored with the same
//! `qos-metrics` code. Integration tests use this to check the runtime
//! and the discrete-event engine agree qualitatively.

use crate::messages::{InferenceReply, RequestStatus};
use crate::server::Server;
use workload::Arrival;

/// Result of replaying a trace.
#[derive(Debug, Clone)]
pub struct DriveReport {
    /// Replies in trace order (index = arrival id).
    pub replies: Vec<InferenceReply>,
    /// How many arrivals the driver had to fire late because the wall
    /// clock slipped past their compressed deadline (telemetry; high
    /// values mean the compression factor is too aggressive for this
    /// machine).
    pub late_fires: usize,
}

impl DriveReport {
    /// Convert completed replies to metric outcomes (trace order).
    pub fn outcomes(&self) -> Vec<qos_metrics::RequestOutcome> {
        self.replies
            .iter()
            .filter(|r| r.status == RequestStatus::Completed)
            .map(|r| qos_metrics::RequestOutcome {
                id: r.id,
                model: r.model.as_str().into(),
                exec_us: r.exec_us,
                e2e_us: r.e2e_us(),
            })
            .collect()
    }
}

/// Replay `arrivals` against `server`, pacing submissions by the server's
/// compressed clock, and block until every reply arrives.
pub fn drive(server: &Server, arrivals: &[Arrival]) -> DriveReport {
    let client = server.client();
    let clock = server.clock();
    let mut pending = Vec::with_capacity(arrivals.len());
    let mut late_fires = 0usize;

    for a in arrivals {
        // Busy-wait on the compressed clock (granularity is coarse enough
        // that a sleep-based pacer overshoots badly at high compression).
        loop {
            let now = clock.now_us();
            if now + 1e-9 >= a.arrival_us {
                if now > a.arrival_us + 10_000.0 {
                    late_fires += 1;
                }
                break;
            }
            std::hint::spin_loop();
        }
        pending.push(client.infer(a.model.clone()));
    }

    let replies = pending
        .into_iter()
        .map(|rx| rx.recv().expect("server replies before shutdown"))
        .collect();
    DriveReport {
        replies,
        late_fires,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::Deployment;
    use crate::server::ServerConfig;

    #[test]
    fn drives_a_small_trace() {
        let mut d = Deployment::new();
        d.deploy_vanilla("m", 5_000.0);
        let server = Server::start(
            d,
            ServerConfig {
                alpha: 4.0,
                elastic: None,
                compression: 5_000.0,
            },
        );
        let arrivals: Vec<Arrival> = (0..10)
            .map(|i| Arrival {
                id: i,
                model: "m".into(),
                arrival_us: i as f64 * 8_000.0,
            })
            .collect();
        let report = drive(&server, &arrivals);
        assert_eq!(report.replies.len(), 10);
        assert!(report
            .replies
            .iter()
            .all(|r| r.status == RequestStatus::Completed));
        let outcomes = report.outcomes();
        assert_eq!(outcomes.len(), 10);
        for o in &outcomes {
            assert!(o.response_ratio() >= 1.0 - 0.25, "{o:?}");
        }
        server.shutdown();
    }
}
