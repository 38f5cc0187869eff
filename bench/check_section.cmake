# Asserts that a bench JSON record holds at least one section whose title
# starts with PREFIX, that each such section has rows, and that every row
# reads "yes" (in any case) in COLUMN. Lets one bench binary that prints several
# experiments' tables keep a smoke test per experiment.
#
# Invoked by ctest as:
#   cmake -DJSON=<record> -DPREFIX=<title prefix> -DCOLUMN=<column>
#         -P check_section.cmake

file(READ ${JSON} record)
string(JSON n_sections LENGTH "${record}" sections)
set(found 0)
math(EXPR last_section "${n_sections} - 1")
foreach(s RANGE ${last_section})
  string(JSON title GET "${record}" sections ${s} title)
  string(FIND "${title}" "${PREFIX}" at)
  if(NOT at EQUAL 0)
    continue()
  endif()
  math(EXPR found "${found} + 1")
  string(JSON n_rows LENGTH "${record}" sections ${s} rows)
  if(n_rows EQUAL 0)
    message(FATAL_ERROR "section '${title}' has no rows")
  endif()
  math(EXPR last_row "${n_rows} - 1")
  foreach(r RANGE ${last_row})
    string(JSON cell GET "${record}" sections ${s} rows ${r} ${COLUMN})
    string(TOLOWER "${cell}" verdict)
    if(NOT verdict STREQUAL "yes")
      message(FATAL_ERROR
              "section '${title}' row ${r}: ${COLUMN} = '${cell}'")
    endif()
  endforeach()
endforeach()

if(found EQUAL 0)
  message(FATAL_ERROR "${JSON} has no section titled '${PREFIX}...'")
endif()
message(STATUS "${found} '${PREFIX}' section(s) passed")
