// lint-test-path: src/api/run.cpp
//
// Fixture: a .cpp under src/api/ may open namespace shedmon, shedmon::api or
// namespaces nested in it; opening another layer's namespace fires
// [layering], the allow() annotation suppresses. Never compiled — consumed
// by shedmon_lint.py --self-test.
#include <filesystem>

namespace fs = std::filesystem;
using namespace shedmon::core;

namespace {
int FileLocal() { return 1; }
}  // namespace

namespace shedmon::api {
namespace {
struct Scratch {};
}  // namespace
namespace detail {
inline int Nested() { return 2; }
}  // namespace detail
}  // namespace shedmon::api

namespace shedmon {
namespace api {
int Spelled() { return 3; }
}  // namespace api
}  // namespace shedmon

namespace shedmon::core {  // expect: layering
int RunOnTrace() { return FileLocal(); }
}  // namespace shedmon::core

namespace shedmon {
namespace exec {  // expect: layering
int Fanout() { return 4; }
}  // namespace exec
}  // namespace shedmon

namespace std {  // expect: layering
}  // namespace std

// lint: allow(layering) fixture: the annotation must suppress the rule
namespace shedmon::query {
}  // namespace shedmon::query
