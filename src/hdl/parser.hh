/**
 * @file
 * Recursive-descent parser for the hwdbg Verilog subset.
 */

#ifndef HWDBG_HDL_PARSER_HH
#define HWDBG_HDL_PARSER_HH

#include <map>
#include <string>

#include "hdl/ast.hh"

namespace hwdbg::hdl
{

/**
 * Deepest nesting the parser accepts: begin/end blocks and nested
 * statements, parentheses, operators and the height of operator
 * chains, counted together. Every later pass recurses on this tree;
 * deeper input fails with "nesting deeper than" instead of exhausting
 * the stack.
 */
inline constexpr int kMaxNesting = 256;

/** Parse preprocessed Verilog text into a Design. */
Design parse(const std::string &source,
             const std::string &file = "<input>");

/**
 * Preprocess (with @p defines) and parse raw Verilog text.
 * This is the main entry point used by the testbed and tools.
 */
Design parseWithDefines(const std::string &source,
                        const std::map<std::string, std::string> &defines,
                        const std::string &file = "<input>");

/** Parse a standalone expression, e.g. "s_valid && s_ready". */
ExprPtr parseExprText(const std::string &text);

} // namespace hwdbg::hdl

#endif // HWDBG_HDL_PARSER_HH
