/**
 * @file
 * SLOC counting (paper Table IV).
 *
 * The paper measures programmer effort with SLOCCount: non-comment,
 * non-blank physical source lines of the code *changed* when porting
 * the serial CPU implementation to each programming model.  We apply
 * the same methodology to this repository: every proxy application
 * keeps one self-contained source file per programming model, and
 * "lines changed" for a model is the number of its code lines that do
 * not also appear in the serial variant (a multiset line diff, the
 * moral equivalent of `diff serial.cc model.cc | grep '^>' | wc -l`).
 * Absolute numbers differ from the paper's (different codebases); the
 * ordering they imply is the reproduced result.
 */

#ifndef HETSIM_CORE_SLOC_HH
#define HETSIM_CORE_SLOC_HH

#include <string>
#include <vector>

#include "kernelir/codegen.hh"

namespace hetsim::core
{

/** Count non-comment, non-blank physical lines in a C/C++ string. */
int slocOfSource(const std::string &source);

/**
 * @return the normalized (comment-stripped, whitespace-collapsed)
 * code lines of a C/C++ source string, for diff-style comparisons.
 */
std::vector<std::string> codeLines(const std::string &source);

/** Count SLOC of a file on disk; fatal() if unreadable. */
int slocOfFile(const std::string &path);

/**
 * Maps app x model to the implementing source files.  Apps are named
 * by their CLI alias (Workload::alias(), e.g. "lulesh"), which is
 * also their directory and file stem under src/apps/; the app table
 * (core::makeAllWorkloads) is the list of apps.
 */
class SlocManifest
{
  public:
    /** @return the repository-relative variant files for app+model. */
    static std::vector<std::string> files(const std::string &alias,
                                          ir::ModelKind model);

    /** @return SLOC of all variant files for app+model. */
    static int sloc(const std::string &alias, ir::ModelKind model);

    /**
     * Table IV cell: lines changed starting from the serial
     * implementation (clamped to >= 1).
     */
    static int linesChanged(const std::string &alias,
                            ir::ModelKind model);

    /** @return absolute path of the repository root. */
    static std::string repoRoot();
};

} // namespace hetsim::core

#endif // HETSIM_CORE_SLOC_HH
