//===- ir/IR.cpp - Register IR ----------------------------------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "ir/IR.h"

#include "support/Error.h"

using namespace narada;

const char *narada::opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::ConstInt:
    return "const_int";
  case Opcode::ConstBool:
    return "const_bool";
  case Opcode::ConstNull:
    return "const_null";
  case Opcode::Move:
    return "move";
  case Opcode::BinOp:
    return "binop";
  case Opcode::UnOp:
    return "unop";
  case Opcode::LoadField:
    return "load_field";
  case Opcode::StoreField:
    return "store_field";
  case Opcode::NewObject:
    return "new_object";
  case Opcode::Invoke:
    return "invoke";
  case Opcode::RandInt:
    return "rand_int";
  case Opcode::MonitorEnter:
    return "monitor_enter";
  case Opcode::MonitorExit:
    return "monitor_exit";
  case Opcode::Jump:
    return "jump";
  case Opcode::Branch:
    return "branch_false";
  case Opcode::Ret:
    return "ret";
  case Opcode::SpawnThread:
    return "spawn";
  }
  narada_unreachable("unknown opcode");
}

std::string narada::methodSymbol(const std::string &ClassName,
                                 const std::string &MethodName) {
  return ClassName + "." + MethodName;
}

IRFunction *IRModule::addFunction(std::unique_ptr<IRFunction> F) {
  IRFunction *Ptr = F.get();
  assert(!ByName.count(Ptr->name()) && "duplicate IR function");
  ByName[Ptr->name()] = Ptr;
  Funcs.push_back(std::move(F));
  return Ptr;
}

const IRFunction *IRModule::findMethod(const std::string &ClassName,
                                       const std::string &MethodName) const {
  auto It = ByName.find(methodSymbol(ClassName, MethodName));
  return It == ByName.end() ? nullptr : It->second;
}

const IRFunction *IRModule::findTest(const std::string &TestName) const {
  return findFunction("test$" + TestName);
}

const IRFunction *IRModule::findFunction(const std::string &Name) const {
  auto It = ByName.find(Name);
  return It == ByName.end() ? nullptr : It->second;
}
