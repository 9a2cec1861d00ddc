#include "ObsWriteOnlyCheck.h"

#include <string>

#include "VodCheckUtils.h"
#include "clang/AST/ASTContext.h"
#include "clang/AST/ExprCXX.h"
#include "clang/AST/ParentMapContext.h"
#include "clang/ASTMatchers/ASTMatchFinder.h"
#include "llvm/ADT/Twine.h"

using namespace clang::ast_matchers;

namespace clang {
namespace tidy {
namespace vod {

namespace {

// The scoped layers are exactly the ones whose decisions the checksum
// contract covers; server/ is excluded on purpose (its engine observers
// merge and export shards — legitimate obs-value plumbing), as are
// bench/ and examples/ (they read metrics to print them).
constexpr char kDefaultScopedDirs[] =
    "src/core/;src/schedule/;src/protocols/;fixtures/obs_write_only";

// True when D lives inside a namespace named "obs" (at any depth:
// vod::obs, ::obs, ...).
bool declInObsNamespace(const Decl *D) {
  if (D == nullptr) return false;
  for (const DeclContext *DC = D->getDeclContext(); DC != nullptr;
       DC = DC->getParent()) {
    const auto *NS = dyn_cast<NamespaceDecl>(DC);
    if (NS == nullptr) continue;
    const IdentifierInfo *II = NS->getIdentifier();
    if (II != nullptr && II->getName() == "obs") return true;
  }
  return false;
}

// True when T is (a pointer or reference to) a record declared in the obs
// namespace — the handle types whose storage and null-testing are part of
// the sanctioned guard idiom.
bool isObsHandleType(QualType T) {
  if (T.isNull()) return false;
  QualType C = T.getCanonicalType();
  while (C->isPointerType() || C->isReferenceType())
    C = C->getPointeeType().getCanonicalType();
  return declInObsNamespace(C->getAsCXXRecordDecl());
}

// True when the call lands in the obs layer: its callee (member or free)
// is declared inside the obs namespace.
bool isObsCall(const CallExpr *Call) {
  if (Call == nullptr) return false;
  return declInObsNamespace(Call->getCalleeDecl());
}

}  // namespace

ObsWriteOnlyCheck::ObsWriteOnlyCheck(StringRef Name, ClangTidyContext *Context)
    : ClangTidyCheck(Name, Context),
      // Twine round-trip: OptionsView::get returned std::string before
      // LLVM 16 and StringRef after; Twine swallows both.
      ScopedDirsRaw(
          (llvm::Twine() + Options.get("ScopedDirs", kDefaultScopedDirs))
              .str()),
      ApprovedFilesRaw(
          (llvm::Twine() + Options.get("ApprovedFiles", "")).str()),
      ScopedDirs(splitOptionList(ScopedDirsRaw)),
      ApprovedFiles(splitOptionList(ApprovedFilesRaw)) {}

void ObsWriteOnlyCheck::storeOptions(ClangTidyOptions::OptionMap &Opts) {
  Options.store(Opts, "ScopedDirs", ScopedDirsRaw);
  Options.store(Opts, "ApprovedFiles", ApprovedFilesRaw);
}

void ObsWriteOnlyCheck::registerMatchers(MatchFinder *Finder) {
  // Every call; the obs-ness, the value-ness, and the consumption context
  // are all resolved in check() with plain AST walks.
  Finder->addMatcher(callExpr().bind("call"), this);
}

void ObsWriteOnlyCheck::check(const MatchFinder::MatchResult &Result) {
  const auto *Call = Result.Nodes.getNodeAs<CallExpr>("call");
  if (Call == nullptr) return;
  const SourceLocation Loc = Call->getBeginLoc();
  if (Loc.isInvalid() || Loc.isMacroID()) return;
  const SourceManager &SM = *Result.SourceManager;
  // Scope: only the decision-making layers are held to the write-only
  // rule (inApprovedFile reused as the inclusion filter), minus the
  // per-file escape hatch.
  if (!inApprovedFile(Loc, SM, ScopedDirs)) return;
  if (inApprovedFile(Loc, SM, ApprovedFiles)) return;
  if (!isObsCall(Call)) return;
  if (Call->getType().isNull() || Call->getType()->isVoidType()) return;
  classifyConsumption(Call, *Result.Context);
}

// Walks up from the obs read to its consumer, diagnosing the contexts
// where the value would flow back into non-obs state. Pass-through nodes
// (casts, parens, arithmetic, member access) keep ascending; the first
// decisive consumer settles it.
void ObsWriteOnlyCheck::classifyConsumption(const CallExpr *Origin,
                                            ASTContext &Ctx) {
  const bool OriginIsHandle = isObsHandleType(Origin->getType());
  const SourceLocation Loc = Origin->getBeginLoc();

  const auto flagLeak = [&](StringRef How) {
    diag(Loc,
         "value read from the obs layer %0; obs is write-only for the "
         "core/schedule/protocol layers — decisions must be identical "
         "with sinks detached (DESIGN.md #16)")
        << How;
  };

  DynTypedNode Node = DynTypedNode::create(*Origin);
  const Stmt *Prev = Origin;
  for (;;) {
    const DynTypedNodeList Parents = Ctx.getParents(Node);
    if (Parents.empty()) return;
    const DynTypedNode Parent = Parents[0];

    if (const auto *VD = Parent.get<VarDecl>()) {
      // Handle storage (counter caches, sink guards) stays inside the obs
      // boundary; any other variable is scheduler state.
      if (isObsHandleType(VD->getType())) return;
      flagLeak("is stored in non-obs state");
      return;
    }
    if (const auto *CI = Parent.get<CXXCtorInitializer>()) {
      const FieldDecl *Member = CI->getAnyMember();
      if (Member != nullptr && isObsHandleType(Member->getType())) return;
      flagLeak("initializes a non-obs member");
      return;
    }
    if (Parent.get<Decl>() != nullptr) return;

    const Stmt *PS = Parent.get<Stmt>();
    if (PS == nullptr) return;

    // Statement position: the value is discarded — the write-only shape.
    if (isa<CompoundStmt>(PS) || isa<CaseStmt>(PS) || isa<DefaultStmt>(PS) ||
        isa<LabelStmt>(PS) || isa<DeclStmt>(PS)) {
      return;
    }
    // Re-export accessor idiom; see header.
    if (isa<ReturnStmt>(PS)) return;

    if (const auto *If = dyn_cast<IfStmt>(PS)) {
      if (If->getCond() == Prev && !OriginIsHandle) {
        flagLeak("is branched on");
        return;
      }
      return;  // sink-guard condition, init-statement, or branch body
    }
    if (const auto *While = dyn_cast<WhileStmt>(PS)) {
      if (While->getCond() == Prev && !OriginIsHandle) {
        flagLeak("is branched on");
        return;
      }
      return;
    }
    if (const auto *Do = dyn_cast<DoStmt>(PS)) {
      if (Do->getCond() == Prev && !OriginIsHandle) {
        flagLeak("is branched on");
        return;
      }
      return;
    }
    if (const auto *For = dyn_cast<ForStmt>(PS)) {
      if (For->getCond() == Prev && !OriginIsHandle) {
        flagLeak("is branched on");
        return;
      }
      return;
    }
    if (const auto *Switch = dyn_cast<SwitchStmt>(PS)) {
      if (Switch->getCond() == Prev) {
        flagLeak("is branched on");
        return;
      }
      return;
    }
    if (const auto *Cond = dyn_cast<ConditionalOperator>(PS)) {
      if (Cond->getCond() == Prev && !OriginIsHandle) {
        flagLeak("is branched on");
        return;
      }
      // Selected-arm value: keep ascending to the real consumer.
      Prev = PS;
      Node = Parent;
      continue;
    }

    if (const auto *BO = dyn_cast<BinaryOperator>(PS)) {
      if (BO->isAssignmentOp()) {
        if (BO->getLHS() == Prev) return;  // written through, not read
        if (isObsHandleType(BO->getLHS()->getType())) return;
        flagLeak("is stored in non-obs state");
        return;
      }
      if (BO->isComparisonOp()) {
        // Null-testing a handle is the guard idiom; comparing a metric
        // value is a decision on it.
        if (OriginIsHandle) return;
        flagLeak("is compared");
        return;
      }
      Prev = PS;  // arithmetic: the derived value flows on
      Node = Parent;
      continue;
    }

    if (const auto *ParentCall = dyn_cast<CallExpr>(PS)) {
      // Values may circulate inside the obs layer (chained calls,
      // c->inc(v - c->value())); crossing into a non-obs callee leaks.
      if (isObsCall(ParentCall)) return;
      flagLeak("is passed to a non-obs function");
      return;
    }
    if (const auto *Construct = dyn_cast<CXXConstructExpr>(PS)) {
      if (declInObsNamespace(Construct->getConstructor())) return;
      flagLeak("is passed to a non-obs constructor");
      return;
    }

    if (const auto *Cast = dyn_cast<ExplicitCastExpr>(PS)) {
      if (Cast->getType()->isVoidType()) return;  // explicit discard
      Prev = PS;
      Node = Parent;
      continue;
    }

    if (isa<ImplicitCastExpr>(PS) || isa<ParenExpr>(PS) ||
        isa<ExprWithCleanups>(PS) || isa<ConstantExpr>(PS) ||
        isa<MaterializeTemporaryExpr>(PS) || isa<CXXBindTemporaryExpr>(PS) ||
        isa<MemberExpr>(PS) || isa<UnaryOperator>(PS) ||
        isa<ArraySubscriptExpr>(PS) || isa<InitListExpr>(PS) ||
        isa<CXXDefaultArgExpr>(PS)) {
      Prev = PS;
      Node = Parent;
      continue;
    }

    // Anything unrecognized is a consumer this check cannot prove
    // write-only; enforcement checks fail closed.
    flagLeak("flows into non-obs state");
    return;
  }
}

}  // namespace vod
}  // namespace tidy
}  // namespace clang
