//! Sharded runs of the serving harness (`serve_sim --shards N`, N > 1).
//!
//! Test-only: the harness has one path for any shard count
//! ([`crate::serving::serve`]; `--shards 1` is the unsharded run), so there is
//! no sharded code to hold here — only the cases that drive it with more
//! than one shard.

#[cfg(test)]
mod tests {
    use figret_serve::ReconfigPolicy;

    use crate::serving::tests::{fabric_options, pod_options};
    use crate::serving::{print_serve_report, serve, ServeEngine, ServeSimOptions};

    #[test]
    fn multi_shard_fleet_partitions_and_reports() {
        let run =
            serve(&ServeSimOptions { shards: 4, ..fabric_options(ReconfigPolicy::default(), 5) });
        assert_eq!(run.fleet.num_shards(), 4);
        assert_eq!(run.fleet.shard_pairs().iter().sum::<usize>(), run.fleet.total_pairs());
        assert_eq!(run.ticks(), 5);
        assert!(run.realized_mlus.iter().all(|m| m.is_finite() && *m > 0.0));
        assert_eq!(run.fleet.admission_stats().ticks, 5);
        assert!(run.serve_seconds > 0.0);
        assert!(run.omniscient.is_none() && run.regret().is_none());
        print_serve_report(&run); // must not panic
    }

    #[test]
    fn table1_fleet_replay_runs_on_source_blocks() {
        let run = serve(&ServeSimOptions {
            shards: 2,
            max_ticks: Some(4),
            ..pod_options(ServeEngine::Lp)
        });
        assert_eq!(run.fleet.num_shards(), 2);
        assert_eq!(run.ticks(), 4);
        assert_eq!(run.fleet.update_count(), 2 * 4, "always-update deploys every shard every tick");
    }

    #[test]
    fn learned_shards_train_on_their_own_slice_of_the_train_split() {
        let options = ServeSimOptions {
            shards: 2,
            use_plan: true,
            policy: ReconfigPolicy::default(),
            ..pod_options(ServeEngine::Learned)
        };
        let run = serve(&options);
        assert!(run.name.contains("2 shards, learned/plan"), "{}", run.name);
        assert_eq!(run.fleet.num_shards(), 2);
        let model_ticks = run
            .fleet
            .logs()
            .iter()
            .flat_map(|log| &log.records)
            .filter(|r| r.source == Some(figret_serve::DecisionSource::Model))
            .count();
        assert!(model_ticks > 0, "the shards must serve model candidates");
        let again = serve(&options);
        assert_eq!(again.fleet.digest(), run.fleet.digest(), "training and serving must replay");
    }
}
