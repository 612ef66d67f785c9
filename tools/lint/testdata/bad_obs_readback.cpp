// lint-test-path: src/predict/bad_obs_readback.cpp
//
// Fixture: reading observability state from a decision subsystem fires
// [obs-read]; writing instruments and the checkpoint Save/Load types stay
// silent. Never compiled — consumed by shedmon_lint.py --self-test.

// lint: allow(layering) stub declarations standing in for the obs headers
namespace obs {
class MetricsRegistry;
class Counter;
class SnapshotWriter;
class SnapshotReader;
}  // namespace obs

namespace shedmon::predict {

void BadReadback(obs::MetricsRegistry& registry, obs::MetricsRegistry* reg_ptr,
                 obs::Counter& packets) {
  auto snap = registry.Snapshot();            // expect: obs-read
  auto snap2 = reg_ptr->Snapshot();           // expect: obs-read
  double level = packets.Value();             // expect: obs-read
  (void)snap; (void)snap2; (void)level;
}

void UsesSnapshotType(const obs::MetricsSnapshot& snap);  // expect: obs-read

// Negatives: one-way writes and the crash-safe checkpoint types are not
// observability readback — SnapshotWriter/SnapshotReader must not match.
void GoodOneWay(obs::Counter& packets);
void SaveState(obs::SnapshotWriter& writer);
void LoadState(obs::SnapshotReader& reader);

void Annotated(obs::MetricsRegistry& registry) {
  // lint: allow(obs-read) fixture: the annotation must suppress the rule
  auto snap = registry.Snapshot();
  (void)snap;
}

}  // namespace shedmon::predict
