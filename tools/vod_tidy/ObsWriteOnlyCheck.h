// vod-obs-write-only
//
// The observability layer (src/obs/) is write-only with respect to the
// decision-making layers: nothing the scheduler computes may depend on a
// value read back from a sink, meter, or counter. That is what makes the
// instrumentation overhead contract checkable (a VOD_OBSERVE=OFF build
// must produce bit-identical schedules — DESIGN.md §10) and what lets a
// deployment turn sinks on and off freely. PRs 4/9 prove the property
// dynamically (checksum equality with sinks on/off); this check makes it
// a compile-time property of the core, schedule, and protocol layers.
//
// Within the scoped directories, every call into the obs namespace that
// produces a value is classified by where the value flows:
//
//   allowed (write-only)                 flagged (effect leak)
//   ------------------------------------ ------------------------------
//   statement position / (void) cast     branched on (if/while/?:) when
//   stored in an obs-typed variable or     the value is not a null-tested
//   member (counter handles, sink          obs handle
//   guards: `if (auto* q = current_     stored into non-obs state
//   qoe())`)                             passed to a non-obs function
//   null-tested obs handle               arithmetic feeding any of the
//   consumed by another obs call           above
//   (`c->inc(v - c->value())`)
//   directly returned (the re-export
//   accessor idiom: total_requests())
//
// The returned-value allowance is deliberate: an accessor may re-export an
// obs-held counter to callers *outside* the scoped layers (benches,
// reports). The dynamic checksum proof remains the
// backstop for values laundered through such an accessor and back in.
//
// Options:
//   ScopedDirs     path substrings where the write-only rule is enforced
//   ApprovedFiles  path substrings exempt even inside ScopedDirs
#pragma once

#include <string>

#include "clang-tidy/ClangTidyCheck.h"

namespace clang {

class ASTContext;

namespace tidy {
namespace vod {

class ObsWriteOnlyCheck : public ClangTidyCheck {
 public:
  ObsWriteOnlyCheck(StringRef Name, ClangTidyContext *Context);

  bool isLanguageVersionSupported(const LangOptions &LangOpts) const override {
    return LangOpts.CPlusPlus;
  }
  void registerMatchers(ast_matchers::MatchFinder *Finder) override;
  void check(const ast_matchers::MatchFinder::MatchResult &Result) override;
  void storeOptions(ClangTidyOptions::OptionMap &Opts) override;

 private:
  void classifyConsumption(const CallExpr *Origin, ASTContext &Ctx);

  const std::string ScopedDirsRaw;
  const std::string ApprovedFilesRaw;
  llvm::SmallVector<llvm::StringRef, 8> ScopedDirs;
  llvm::SmallVector<llvm::StringRef, 8> ApprovedFiles;
};

}  // namespace vod
}  // namespace tidy
}  // namespace clang
