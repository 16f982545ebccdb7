#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "consensus/durable_log.h"
#include "consensus/raft.h"

namespace logstore::consensus {
namespace {

RaftOptions FastOptions() {
  RaftOptions options;
  options.election_timeout_min_ms = 100;
  options.election_timeout_max_ms = 200;
  options.heartbeat_interval_ms = 30;
  return options;
}

TEST(RaftTest, ElectsSingleLeader) {
  RaftCluster cluster(3, FastOptions(), 1);
  const int leader = cluster.WaitForLeader();
  ASSERT_GE(leader, 0);
  int leaders = 0;
  for (int i = 0; i < cluster.num_nodes(); ++i) {
    if (cluster.node(i).role() == Role::kLeader) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
}

TEST(RaftTest, ReplicatesAndAppliesEntries) {
  RaftCluster cluster(3, FastOptions(), 2);
  std::map<int, std::vector<std::string>> applied;
  for (int i = 0; i < 3; ++i) {
    cluster.SetApplyFn(i, [&applied, i](uint64_t, const std::string& payload) {
      applied[i].push_back(payload);
    });
  }
  ASSERT_GE(cluster.WaitForLeader(), 0);

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.Propose("entry-" + std::to_string(i)).ok());
  }
  cluster.Tick(500);

  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(applied[i].size(), 10u) << "node " << i;
    for (int e = 0; e < 10; ++e) {
      EXPECT_EQ(applied[i][e], "entry-" + std::to_string(e));
    }
    EXPECT_EQ(cluster.node(i).commit_index(), 10u);
  }
}

TEST(RaftTest, ProposeOnFollowerFails) {
  RaftCluster cluster(3, FastOptions(), 3);
  const int leader = cluster.WaitForLeader();
  ASSERT_GE(leader, 0);
  for (int i = 0; i < 3; ++i) {
    if (i == leader) continue;
    Status s = cluster.node(i).Propose("x");
    EXPECT_TRUE(s.IsUnavailable());
  }
}

TEST(RaftTest, SurvivesLeaderFailure) {
  RaftCluster cluster(3, FastOptions(), 4);
  const int first = cluster.WaitForLeader();
  ASSERT_GE(first, 0);
  ASSERT_TRUE(cluster.Propose("before-failover").ok());
  cluster.Tick(300);

  cluster.Disconnect(first);
  const int second = cluster.WaitForLeader(20000);
  ASSERT_GE(second, 0);
  EXPECT_NE(second, first);

  ASSERT_TRUE(cluster.Propose("after-failover").ok());
  cluster.Tick(300);
  EXPECT_EQ(cluster.node(second).commit_index(), 2u);

  // Old leader reconnects and catches up as a follower.
  cluster.Reconnect(first);
  cluster.Tick(1000);
  EXPECT_EQ(cluster.node(first).commit_index(), 2u);
  EXPECT_NE(cluster.node(first).role(), Role::kLeader);
}

TEST(RaftTest, MinorityPartitionCannotCommit) {
  RaftCluster cluster(3, FastOptions(), 5);
  const int leader = cluster.WaitForLeader();
  ASSERT_GE(leader, 0);
  // Isolate the leader with no followers: its entries must not commit.
  for (int i = 0; i < 3; ++i) {
    if (i != leader) cluster.Disconnect(i);
  }
  (void)cluster.node(leader).Propose("uncommittable");
  cluster.Tick(500);
  EXPECT_EQ(cluster.node(leader).commit_index(), 0u);
}

TEST(RaftTest, ToleratesMessageLoss) {
  RaftCluster cluster(3, FastOptions(), 6);
  cluster.SetDropRate(0.2);
  const int leader = cluster.WaitForLeader(30000);
  ASSERT_GE(leader, 0);
  for (int i = 0; i < 5; ++i) {
    // Retry proposes during churn.
    for (int attempt = 0; attempt < 50; ++attempt) {
      if (cluster.Propose("m" + std::to_string(i)).ok()) break;
      cluster.Tick(50);
    }
  }
  cluster.Tick(3000);
  cluster.SetDropRate(0.0);
  cluster.Tick(1000);
  const int final_leader = cluster.leader();
  ASSERT_GE(final_leader, 0);
  EXPECT_EQ(cluster.node(final_leader).commit_index(), 5u);
}

TEST(RaftTest, SingleNodeClusterCommitsAlone) {
  RaftCluster cluster(1, FastOptions(), 7);
  ASSERT_GE(cluster.WaitForLeader(), 0);
  ASSERT_TRUE(cluster.Propose("solo").ok());
  cluster.Tick(100);
  EXPECT_EQ(cluster.node(0).commit_index(), 1u);
}

TEST(RaftTest, SyncQueueBackpressureRejectsWrites) {
  RaftOptions options = FastOptions();
  options.sync_queue_max_items = 4;
  RaftCluster cluster(3, options, 8);
  const int leader = cluster.WaitForLeader();
  ASSERT_GE(leader, 0);

  // Without ticking, the sync queue cannot drain: the 5th write must be
  // rejected with ResourceExhausted (BFC).
  int accepted = 0;
  Status last = Status::OK();
  for (int i = 0; i < 10; ++i) {
    last = cluster.node(leader).Propose("burst");
    if (last.ok()) ++accepted;
  }
  EXPECT_EQ(accepted, 4);
  EXPECT_TRUE(last.IsResourceExhausted());

  // After draining, writes are accepted again.
  cluster.Tick(200);
  EXPECT_TRUE(cluster.node(leader).Propose("after-drain").ok());
}

TEST(RaftTest, SyncQueueByteLimitAlsoTriggers) {
  RaftOptions options = FastOptions();
  options.sync_queue_max_items = 1000;
  options.sync_queue_max_bytes = 100;
  RaftCluster cluster(3, options, 9);
  const int leader = cluster.WaitForLeader();
  ASSERT_GE(leader, 0);
  ASSERT_TRUE(cluster.node(leader).Propose(std::string(80, 'x')).ok());
  // 80 + 80 > 100: second large write rejected (paper: "processing a small
  // number of massive inputs can also cause the system to overload").
  EXPECT_TRUE(cluster.node(leader)
                  .Propose(std::string(80, 'y'))
                  .IsResourceExhausted());
}

TEST(RaftTest, SlowApplierTriggersBackpressure) {
  RaftOptions options = FastOptions();
  options.apply_per_tick = 1;          // very slow state machine
  options.apply_queue_max_items = 8;
  options.sync_queue_max_items = 16;
  options.max_uncommitted_entries = 32;
  RaftCluster cluster(3, options, 10);
  const int leader = cluster.WaitForLeader();
  ASSERT_GE(leader, 0);

  // Flood the system; BFC must bound both queues rather than growing them
  // without limit.
  int rejected = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 8; ++i) {
      if (!cluster.Propose("flood").ok()) ++rejected;
    }
    cluster.Tick(30);
    for (int n = 0; n < 3; ++n) {
      EXPECT_LE(cluster.node(n).apply_queue_depth(),
                options.apply_queue_max_items);
      EXPECT_LE(cluster.node(n).sync_queue_depth(),
                options.sync_queue_max_items);
    }
  }
  EXPECT_GT(rejected, 0);  // backpressure reached the client
}

TEST(RaftTest, WalOnlyReplicaDoesNotApply) {
  // §3: "it can store only WAL on other replicas". Node 0 applies; nodes 1
  // and 2 have no ApplyFn and keep only the log.
  RaftCluster cluster(3, FastOptions(), 11);
  int applied = 0;
  cluster.SetApplyFn(0, [&applied](uint64_t, const std::string&) {
    ++applied;
  });
  ASSERT_GE(cluster.WaitForLeader(), 0);
  ASSERT_TRUE(cluster.Propose("e1").ok());
  cluster.Tick(300);
  EXPECT_EQ(applied, 1);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(cluster.node(i).log_size(), 1u) << "node " << i;
    // AdvanceWatermark clamps to last_applied(), so a WAL-only node must
    // still advance it, or its log could never be released.
    EXPECT_EQ(cluster.node(i).last_applied(), 1u) << "node " << i;
    ASSERT_TRUE(cluster.node(i).AdvanceWatermark(1, 0).ok());
    EXPECT_EQ(cluster.node(i).log_base_index(), 1u) << "node " << i;
  }
}

TEST(RaftTest, RestartedNodeRecoversFromLog) {
  RaftCluster cluster(3, FastOptions(), 12);
  const int leader = cluster.WaitForLeader();
  ASSERT_GE(leader, 0);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(cluster.Propose("p").ok());
  cluster.Tick(300);

  const int follower = (leader + 1) % 3;
  cluster.node(follower).Restart();  // keeps log, loses volatile state
  EXPECT_EQ(cluster.node(follower).log_size(), 5u);
  EXPECT_EQ(cluster.node(follower).commit_index(), 0u);
  cluster.Tick(500);
  EXPECT_EQ(cluster.node(follower).commit_index(), 5u);
}

TEST(RaftTest, DivergentLogsAreOverwrittenAfterPartition) {
  // The classic Raft scenario: an isolated leader accepts entries that
  // never commit; after healing, the new leader's log overwrites them.
  RaftCluster cluster(3, FastOptions(), 21);
  const int first = cluster.WaitForLeader();
  ASSERT_GE(first, 0);
  ASSERT_TRUE(cluster.Propose("committed-1").ok());
  cluster.Tick(300);

  // Isolate the leader, then feed it doomed entries.
  cluster.Disconnect(first);
  for (int i = 0; i < 3; ++i) {
    (void)cluster.node(first).Propose("doomed-" + std::to_string(i));
  }
  // Let the isolated node tick alone so it appends them to its log.
  // (RaftCluster::Tick skips disconnected nodes, so tick it directly.)
  std::vector<Message> ignored;
  for (int i = 0; i < 10; ++i) cluster.node(first).Tick(10, &ignored);
  EXPECT_EQ(cluster.node(first).log_size(), 4u);  // 1 committed + 3 doomed

  // Majority elects a new leader and commits different entries.
  const int second = cluster.WaitForLeader(20000);
  ASSERT_GE(second, 0);
  ASSERT_NE(second, first);
  ASSERT_TRUE(cluster.Propose("committed-2").ok());
  cluster.Tick(300);

  // Heal: the old leader must discard the doomed suffix and converge.
  cluster.Reconnect(first);
  cluster.Tick(2000);
  ASSERT_EQ(cluster.node(first).commit_index(), 2u);
  EXPECT_EQ(cluster.node(first).log_size(), 2u);
  EXPECT_EQ(cluster.node(first).log_at(2).payload, "committed-2");
}

TEST(RaftTest, AllNodesConvergeToIdenticalLogs) {
  RaftCluster cluster(5, FastOptions(), 22);
  ASSERT_GE(cluster.WaitForLeader(), 0);
  for (int i = 0; i < 20; ++i) {
    for (int attempt = 0; attempt < 20; ++attempt) {
      if (cluster.Propose("entry-" + std::to_string(i)).ok()) break;
      cluster.Tick(50);
    }
    if (i == 10) {
      // Mid-stream follower failure and recovery.
      cluster.Disconnect((cluster.leader() + 1) % 5);
    }
  }
  cluster.Reconnect((cluster.leader() + 1) % 5);
  cluster.Tick(3000);

  const uint64_t commit = cluster.node(cluster.leader()).commit_index();
  EXPECT_EQ(commit, 20u);
  for (int n = 0; n < 5; ++n) {
    ASSERT_GE(cluster.node(n).log_size(), commit) << "node " << n;
    for (uint64_t i = 1; i <= commit; ++i) {
      EXPECT_EQ(cluster.node(n).log_at(i).payload,
                "entry-" + std::to_string(i - 1))
          << "node " << n << " index " << i;
    }
  }
}

TEST(RaftTest, LeadershipIsStableWithoutFailures) {
  RaftCluster cluster(5, FastOptions(), 13);
  const int leader = cluster.WaitForLeader();
  ASSERT_GE(leader, 0);
  const uint64_t term = cluster.node(leader).term();
  cluster.Tick(5000);
  EXPECT_EQ(cluster.leader(), leader);
  EXPECT_EQ(cluster.node(leader).term(), term);
}

TEST(RaftTest, ConvergesUnderDuplicationReorderingAndLoss) {
  // An unreliable network delivers some messages twice, holds others back
  // for a few delivery rounds, and drops a fraction outright. The protocol
  // must still commit everything exactly once on every replica.
  for (uint64_t seed : {31, 32, 33, 34, 35}) {
    RaftCluster cluster(3, FastOptions(), seed);
    std::map<int, std::vector<std::string>> applied;
    for (int i = 0; i < 3; ++i) {
      cluster.SetApplyFn(i,
                         [&applied, i](uint64_t, const std::string& payload) {
                           applied[i].push_back(payload);
                         });
    }
    cluster.SetDuplicateRate(0.2);
    cluster.SetReorderRate(0.2);
    cluster.SetDropRate(0.1);
    ASSERT_GE(cluster.WaitForLeader(), 0) << "seed " << seed;

    for (int i = 0; i < 15; ++i) {
      for (int attempt = 0; attempt < 50; ++attempt) {
        if (cluster.Propose("entry-" + std::to_string(i)).ok()) break;
        cluster.Tick(50);
      }
    }
    // Heal the network so delayed messages flush and the group settles.
    cluster.SetDuplicateRate(0.0);
    cluster.SetReorderRate(0.0);
    cluster.SetDropRate(0.0);
    cluster.Tick(3000);

    const uint64_t commit = cluster.node(cluster.leader()).commit_index();
    EXPECT_EQ(commit, 15u) << "seed " << seed;
    for (int n = 0; n < 3; ++n) {
      // Exactly once: duplicated kAppendEntries must not re-apply, and
      // reordered ones must not apply out of order.
      ASSERT_EQ(applied[n].size(), 15u) << "seed " << seed << " node " << n;
      for (int e = 0; e < 15; ++e) {
        EXPECT_EQ(applied[n][e], "entry-" + std::to_string(e))
            << "seed " << seed << " node " << n;
      }
      EXPECT_EQ(cluster.node(n).commit_index(), commit)
          << "seed " << seed << " node " << n;
    }
  }
}

// --- InstallSnapshot: repairing a follower the log can no longer reach ---

// A toy replicated state machine whose snapshot is the applied map itself,
// serialized as "index:payload\n" lines. (The production embedder ships an
// EMPTY blob because its state lives in object-store LogBlocks; encoding
// real state here proves the blob plumbing end to end.)
struct SnapshotHarness {
  std::map<int, std::map<uint64_t, std::string>> state;  // node -> applied
  std::map<int, uint64_t> install_aux;                   // node -> last aux

  void Wire(RaftCluster* cluster, int node) {
    cluster->SetApplyFn(node,
                        [this, node](uint64_t index, const std::string& p) {
                          state[node][index] = p;
                        });
    cluster->SetSnapshotHooks(
        node,
        [this, node](uint64_t index, uint64_t) {
          std::string blob;
          for (const auto& [i, p] : state[node]) {
            if (i <= index) blob += std::to_string(i) + ":" + p + "\n";
          }
          return blob;
        },
        [this, node](uint64_t, uint64_t aux, const std::string& blob) {
          install_aux[node] = aux;
          state[node].clear();
          size_t pos = 0;
          while (pos < blob.size()) {
            const size_t colon = blob.find(':', pos);
            const size_t nl = blob.find('\n', colon);
            state[node][std::stoull(blob.substr(pos, colon - pos))] =
                blob.substr(colon + 1, nl - colon - 1);
            pos = nl + 1;
          }
        });
  }
};

TEST(RaftTest, SnapshotRepairsFollowerBehindCompaction) {
  RaftCluster cluster(3, FastOptions(), 41);
  SnapshotHarness harness;
  for (int i = 0; i < 3; ++i) harness.Wire(&cluster, i);
  const int leader = cluster.WaitForLeader();
  ASSERT_GE(leader, 0);

  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(cluster.Propose("e" + std::to_string(i)).ok());
  }
  cluster.Tick(500);

  // One follower dies; the group keeps committing and then compacts its
  // log past everything the dead follower ever saw.
  const int follower = (leader + 1) % 3;
  cluster.Disconnect(follower);
  for (int i = 5; i < 10; ++i) {
    ASSERT_TRUE(cluster.Propose("e" + std::to_string(i)).ok());
  }
  cluster.Tick(500);
  for (int i = 0; i < 3; ++i) {
    if (i == follower) continue;
    ASSERT_TRUE(cluster.node(i).AdvanceWatermark(8, /*aux=*/42).ok());
    EXPECT_EQ(cluster.node(i).log_base_index(), 8u);
  }

  // On rejoin, AppendEntries cannot reach the follower (its log ends at 5,
  // the leader's starts above 8): the leader must ship a snapshot.
  cluster.Reconnect(follower);
  cluster.Tick(2000);

  EXPECT_GE(cluster.node(leader).snapshots_sent(), 1u);
  EXPECT_EQ(cluster.node(follower).snapshots_installed(), 1u);
  EXPECT_EQ(cluster.node(follower).log_base_index(), 8u);
  EXPECT_EQ(cluster.node(follower).log_base_aux(), 42u);
  EXPECT_EQ(harness.install_aux[follower], 42u);
  EXPECT_EQ(cluster.node(follower).last_applied(), 10u);
  // The follower's machine equals the leader's: 1..8 from the snapshot
  // blob, 9..10 re-applied through the protocol.
  ASSERT_EQ(harness.state[follower].size(), 10u);
  for (uint64_t i = 1; i <= 10; ++i) {
    EXPECT_EQ(harness.state[follower][i], "e" + std::to_string(i - 1));
  }
}

TEST(RaftTest, StaleSnapshotDoesNotRewindFollower) {
  RaftCluster cluster(3, FastOptions(), 42);
  SnapshotHarness harness;
  for (int i = 0; i < 3; ++i) harness.Wire(&cluster, i);
  const int leader = cluster.WaitForLeader();
  ASSERT_GE(leader, 0);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(cluster.Propose("e" + std::to_string(i)).ok());
  }
  cluster.Tick(500);

  // Hand-deliver a duplicated/stale snapshot that covers a prefix the
  // follower already applied. It must be acknowledged (match advances, so
  // the leader un-sticks) but MUST NOT reinstall or re-apply anything.
  const int follower = (leader + 1) % 3;
  const auto before = harness.state[follower];
  Message stale;
  stale.type = MessageType::kInstallSnapshot;
  stale.from = leader;
  stale.to = follower;
  stale.term = cluster.node(leader).term();
  stale.snapshot_index = 3;
  stale.snapshot_term = cluster.node(leader).log_at(3).term;
  stale.snapshot_state = "999:poison\n";
  std::vector<Message> replies;
  cluster.node(follower).Receive(stale, &replies);

  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].type, MessageType::kAppendResponse);
  EXPECT_TRUE(replies[0].success);
  EXPECT_EQ(replies[0].match_index, 6u);  // acknowledges real progress
  EXPECT_EQ(cluster.node(follower).snapshots_installed(), 0u);
  EXPECT_EQ(cluster.node(follower).last_applied(), 6u);
  EXPECT_EQ(harness.state[follower], before);  // no poison, no rewind
}

TEST(RaftTest, SnapshotCatchUpSurvivesUnreliableNetwork) {
  // Duplicated and reordered snapshot/append traffic: installs must stay
  // idempotent and the group must still converge exactly once.
  for (uint64_t seed : {51, 52, 53}) {
    RaftCluster cluster(3, FastOptions(), seed);
    SnapshotHarness harness;
    for (int i = 0; i < 3; ++i) harness.Wire(&cluster, i);
    const int leader = cluster.WaitForLeader();
    ASSERT_GE(leader, 0) << "seed " << seed;
    const int follower = (leader + 1) % 3;
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(cluster.Propose("e" + std::to_string(i)).ok());
    }
    cluster.Tick(500);
    cluster.Disconnect(follower);
    for (int i = 4; i < 8; ++i) {
      ASSERT_TRUE(cluster.Propose("e" + std::to_string(i)).ok());
    }
    cluster.Tick(500);
    for (int i = 0; i < 3; ++i) {
      if (i == follower) continue;
      ASSERT_TRUE(cluster.node(i).AdvanceWatermark(7, /*aux=*/7).ok());
    }
    cluster.SetDuplicateRate(0.3);
    cluster.SetReorderRate(0.2);
    cluster.Reconnect(follower);
    cluster.Tick(3000);
    cluster.SetDuplicateRate(0.0);
    cluster.SetReorderRate(0.0);
    cluster.Tick(1000);

    EXPECT_EQ(cluster.node(follower).last_applied(), 8u) << "seed " << seed;
    ASSERT_EQ(harness.state[follower].size(), 8u) << "seed " << seed;
    for (uint64_t i = 1; i <= 8; ++i) {
      EXPECT_EQ(harness.state[follower][i], "e" + std::to_string(i - 1))
          << "seed " << seed;
    }
  }
}

TEST(RaftTest, DurableWalAcceptsPostSnapshotAppends) {
  // The WAL of a follower that took a snapshot must accept the next append
  // at snapshot_index + 1 (the watermark jumped past its old log end) and
  // recover the jumped base after a restart.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "raft_snapshot_wal_test";
  fs::remove_all(dir);

  {
    auto wal = DurableLog::Open(dir.string());
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    LogEntry entry;
    entry.term = 1;
    entry.payload = "old";
    ASSERT_TRUE((*wal)->AppendEntry(1, entry).ok());
    ASSERT_TRUE((*wal)->AppendEntry(2, entry).ok());
    // InstallSnapshot at index 9: truncate the stale suffix, then the
    // watermark jumps the expected next index to 10.
    ASSERT_TRUE((*wal)->TruncateSuffix(1).ok());
    ASSERT_TRUE((*wal)->PersistWatermark(9, 3, 77).ok());
    entry.payload = "new";
    EXPECT_TRUE((*wal)->AppendEntry(10, entry).ok());
  }
  auto wal = DurableLog::Open(dir.string());
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ((*wal)->recovered().base_index, 9u);
  EXPECT_EQ((*wal)->recovered().base_term, 3u);
  EXPECT_EQ((*wal)->recovered().watermark_aux, 77u);
  ASSERT_EQ((*wal)->recovered().entries.size(), 1u);
  EXPECT_EQ((*wal)->recovered().entries[0].payload, "new");
  fs::remove_all(dir);
}

}  // namespace
}  // namespace logstore::consensus
